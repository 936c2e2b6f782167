"""Independent numerical oracles used by the test suite.

The spectral propagator evolves a sampled Gaussian packet with the exact
free kinetic phase in momentum space and measures moments by quadrature;
it shares no code (and no closed-form width law) with the package. The RK4
reference integrates the mode guidance fields stage by stage on arrays,
written out from the textbook method rather than the package's step maps;
the affine fold composes given per-step maps one step at a time, as a
plain loop over every step, with no chunks and no shortcut for any mode.
The adaptive reference is the scalar Dormand-Prince step loop, one
trajectory at a time, with its own copy of the tableau and its own error
scale; the package's adaptive maps, which step each mode's affine map
instead, must agree with it within the tolerance. The continuity reference evaluates every
stage of the residual over the whole grid at once, with no blocking of rows,
from the package's own density and velocity: it checks the blocking, not
the physics. Its leaf form adds the whole-grid squares over the package's
row leaves with math.fsum, and the package must match it bit for bit; both
forms square the residual scaled by a power of two, so a tiny residual's
squares do not underflow. The
free Gaussian amplitude is the textbook packet, boosted and spread,
written from its formula and using nothing of the package; the
finite-difference velocity differences it. The KS, ndtr and mode-layout
references are the plain forms of the package's kernels: a
new array per stage, ndtr's branches picked by masks on |x| rather than by
slices of sorted values, and the two KS ramps i/n and (i - 1)/n built
separately; the kernels must match them bit for bit. The normals
reference draws a substream's Philox words and runs ndtri on all of them at
once, and the package's chunked sampler must match it bit for bit.
"""

import math

import numpy as np
from numpy.random import Philox

from bohm_equilibrium import _normal
from bohm_equilibrium.dynamics import substream_normals
from bohm_equilibrium.model import eval_density, evolve_mode, mode_coordinates


def spectral_free_packet(sigma0, coord_mass, hbar, t, wavenumber=0.0, center0=0.0):
    """Propagate a Gaussian packet numerically; return (mean, std, norm).

    FFT free propagation on a periodic box wide enough that wraparound is
    below double precision; moments come from trapezoid quadrature of the
    propagated density.
    """
    # dimensional bound sigma(t) <= sigma0 + hbar*t/(2*m*sigma0), used only
    # to size the box, never as the answer
    spread_bound = sigma0 + hbar * abs(t) / (2.0 * coord_mass * sigma0)
    drift = hbar * wavenumber / coord_mass
    half = 12.0 * spread_bound + abs(drift * t) + 12.0 * sigma0
    dx_target = sigma0 / 8.0
    n = 1 << max(12, math.ceil(math.log2(2.0 * half / dx_target)))
    x = center0 - half + (2.0 * half / n) * np.arange(n)
    dx = x[1] - x[0]

    envelope = np.exp(-((x - center0) ** 2) / (4.0 * sigma0**2))
    psi0 = envelope * np.exp(1j * wavenumber * (x - center0))
    psi0 = psi0 / math.sqrt(np.trapezoid(np.abs(psi0) ** 2, x))

    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    kinetic_phase = np.exp(-1j * hbar * k**2 * t / (2.0 * coord_mass))
    psi_t = np.fft.ifft(np.fft.fft(psi0) * kinetic_phase)

    rho = np.abs(psi_t) ** 2
    norm = float(np.trapezoid(rho, x))
    mean = float(np.trapezoid(x * rho, x) / norm)
    var = float(np.trapezoid((x - mean) ** 2 * rho, x) / norm)
    return mean, math.sqrt(var), norm


def state_modes(state):
    """The (cm, rel) (sigma0, coord_mass, center0, wavenumber) tuples of a package state."""
    return tuple(
        (mode.sigma0, mode.coord_mass, mode.center0, mode.wavenumber)
        for mode in (state.cm_mode, state.rel_mode)
    )


def free_gaussian_amplitude(mode, hbar, u, t):
    """Amplitude psi(u, t) of a freely spreading Gaussian packet.

    mode is a (sigma0, coord_mass, center0, wavenumber) tuple. With
    s = hbar*t/(2 m sigma0^2) and v = hbar*k/m, psi is
    (2 pi sigma0^2)^(-1/4) (1 + i s)^(-1/2)
    * exp(i k (u - c0) - i hbar k^2 t/(2m) - (u - c0 - v t)^2 / (4 sigma0^2 (1 + i s))),
    the spreading packet at rest boosted by momentum hbar*k.
    """
    sigma0, mass, center0, wavenumber = mode
    spread = complex(1.0, hbar * t / (2.0 * mass * sigma0**2))
    drift = hbar * wavenumber / mass
    xi = np.asarray(u, dtype=float) - center0
    exponent = 1j * wavenumber * (xi - 0.5 * drift * t) - (xi - drift * t) ** 2 / (
        4.0 * sigma0**2 * spread
    )
    return (2.0 * math.pi * sigma0**2) ** -0.25 / np.sqrt(spread) * np.exp(exponent)


def pair_amplitude(modes, hbar, y1, y2, t):
    """psi(y1, y2, t) = psi_cm((y1 + y2)/2) * psi_rel(y1 - y2) for modes = (cm, rel)."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    cm, rel = modes
    return free_gaussian_amplitude(cm, hbar, 0.5 * (y1 + y2), t) * free_gaussian_amplitude(
        rel, hbar, y1 - y2, t
    )


def velocity_fd(modes, hbar, mass, y1, y2, t, h):
    """(v1, v2) = (hbar/m) * Im(d_k psi / psi) from central differences of spacing h.

    The stencil is second order, so the error falls as h^2.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    psi = pair_amplitude(modes, hbar, y1, y2, t)
    d1 = pair_amplitude(modes, hbar, y1 + h, y2, t) - pair_amplitude(modes, hbar, y1 - h, y2, t)
    d2 = pair_amplitude(modes, hbar, y1, y2 + h, t) - pair_amplitude(modes, hbar, y1, y2 - h, t)
    scale = hbar / mass
    return scale * np.imag(d1 / (2.0 * h * psi)), scale * np.imag(d2 / (2.0 * h * psi))


def cdf_sup_distance(cdf_a, cdf_b, lo, hi, n=2_000_001):
    """Brute-force sup |F_a - F_b| on a dense grid."""
    x = np.linspace(lo, hi, n)
    return float(np.max(np.abs(cdf_a(x) - cdf_b(x))))


def guidance_field(modes, hbar):
    """field(t, u) of the decoupled mode fields, one row of u per mode.

    modes holds one (sigma0, coord_mass, center0, wavenumber) tuple per row
    of u (shape (rows, n)). Each row moves in v = hbar*k/m + (u - c(t)) *
    b^2 t / (1 + b^2 t^2) with b = hbar / (2 m sigma0^2) and c(t) =
    center0 + hbar*k*t/m.
    """
    params = np.array(modes, dtype=float)
    sigma0, mass, center0, wavenumber = (params[:, i : i + 1] for i in range(4))
    b = hbar / (2.0 * mass * sigma0**2)
    group = hbar * wavenumber / mass

    def field(t, u):
        return group + (u - (center0 + group * t)) * (b * b * t / (1.0 + (b * t) ** 2))

    return field


def rk4_reference(modes, hbar, u0, dt, n_steps, record_stride=0, t0=0.0):
    """Classical four-stage RK4 on the decoupled mode fields (guidance_field), step by step.

    Returns the states at step 0, every record_stride-th step (if
    record_stride > 0) and step n_steps.
    """
    field = guidance_field(modes, hbar)
    u = np.array(u0, dtype=float)
    frames = [u]
    for step in range(n_steps):
        t = t0 + step * dt
        k1 = field(t, u)
        k2 = field(t + dt / 2.0, u + dt / 2.0 * k1)
        k3 = field(t + dt / 2.0, u + dt / 2.0 * k2)
        k4 = field(t + dt, u + dt * k3)
        u = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done = step + 1
        if done == n_steps or (record_stride > 0 and done % record_stride == 0):
            frames.append(u)
    return frames


def affine_fold_reference(a0, b0, alpha, beta):
    """Compose the steps u -> alpha[k] * u + beta[k] one at a time from the map (a0, b0).

    Returns lists a and b of len(alpha) + 1 floats, entry j the map after j steps.
    """
    a, b = [a0], [b0]
    for alpha_k, beta_k in zip(alpha, beta):
        a.append(a[-1] * alpha_k)
        b.append(alpha_k * b[-1] + beta_k)
    return a, b


# Dormand & Prince (1980) 5(4) tableau
DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0)
DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
DP_ERR = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


class ReferenceUnderflow(RuntimeError):
    """The reference controller drove its step below 1e-12."""


class ReferenceOverflow(RuntimeError):
    """The step fell below 1e-12 after an attempt whose error was not finite."""


def rk45_reference(rhs, y, t0, t1, tolerance, monitor=None):
    """Adaptive Dormand-Prince step loop for one trajectory, t0 to t1.

    Scalar time and step size (Hairer, Norsett & Wanner, Solving ODEs I,
    II.4): error against tolerance*(1 + |y|) per component, steps shrink by
    at most 5x and grow by at most 5x per attempt (5x down on a non-finite
    error), and a step below 1e-12 raises ReferenceOverflow if the last
    attempt's error was not finite and ReferenceUnderflow otherwise.
    monitor(t, y) sees every accepted step.
    """
    t = t0
    dt = min((t1 - t0) / 100.0, 0.1)
    overflowed = False
    while t < t1:
        remaining = t1 - t
        last = dt >= remaining
        h = remaining if last else dt
        if h < 1e-12:
            if overflowed:
                raise ReferenceOverflow(f"state not finite after t = {t:.6g}")
            raise ReferenceUnderflow(f"step fell below 1e-12 at t = {t:.6g}")
        k = [rhs(t, y)]
        for stage in range(1, 6):
            yk = y
            for coeff, ki in zip(DP_A[stage], k):
                yk = yk + (h * coeff) * ki
            k.append(rhs(t + DP_C[stage] * h, yk))
        y5 = y
        for coeff, ki in zip(DP_B5, k):
            y5 = y5 + (h * coeff) * ki
        k.append(rhs(t + h, y5))
        err = np.zeros_like(y)
        for coeff, ki in zip(DP_ERR, k):
            err = err + (h * coeff) * ki
        scale = tolerance * (1.0 + np.abs(y))
        err_norm = float(np.max(np.abs(err) / scale))
        overflowed = not math.isfinite(err_norm)
        if err_norm <= 1.0:
            t = t1 if last else t + h
            y = y5
            if monitor is not None:
                monitor(t, y)
            factor = 5.0 if err_norm == 0.0 else 0.9 * np.power([err_norm], -0.2)[0]
        else:
            factor = max(0.2, 0.9 * np.power([err_norm], -0.2)[0])
        dt = h * min(5.0, factor)
    return y


def continuity_residual_reference(state, grid, t):
    """Whole-grid d_t rho + div(rho v); returns (residual, max_norm, l2_norm).

    Every stage array spans the full ghost-extended grid; no blocking.
    """
    ext1 = (grid.y1_min - grid.h) + grid.h * np.arange(grid.n1 + 2)
    ext2 = (grid.y2_min - grid.h) + grid.h * np.arange(grid.n2 + 2)
    yy1 = ext1[:, None]
    yy2 = ext2[None, :]
    rho = eval_density(state, yy1, yy2, t)
    big_y, small_y = mode_coordinates(yy1, yy2)
    v_cm = evolve_mode(state.cm_mode, state.params, t).velocity(big_y)
    v_rel = evolve_mode(state.rel_mode, state.params, t).velocity(small_y)
    flux1 = rho * (v_cm + 0.5 * v_rel)
    flux2 = rho * (v_cm - 0.5 * v_rel)

    inner1 = slice(1, -1)
    rho_plus = eval_density(state, yy1[inner1], yy2[:, inner1], t + grid.tau)
    rho_minus = eval_density(state, yy1[inner1], yy2[:, inner1], t - grid.tau)
    dt_rho = (rho_plus - rho_minus) / (2.0 * grid.tau)
    div1 = (flux1[2:, 1:-1] - flux1[:-2, 1:-1]) / (2.0 * grid.h)
    div2 = (flux2[1:-1, 2:] - flux2[1:-1, :-2]) / (2.0 * grid.h)
    residual = dt_rho + div1 + div2

    max_norm = float(np.max(np.abs(residual)))
    return residual, max_norm, leaf_l2_norm(residual, grid.h, len(residual))


def leaf_l2_norm(residual, h, rows):
    """l2_norm of a whole-grid residual summed over leaves of rows whole rows.

    Each leaf's squares go through np.sum, and math.fsum adds the leaf sums,
    as the package combines them; a single leaf of all rows is the whole-grid
    np.sum. The residual is first scaled by the power of two that brings its
    max |r| into [0.5, 1), and the root is scaled back, so that no square
    underflows and no sum overflows; the scaling is exact.
    """
    exponent = math.frexp(np.max(np.abs(residual)))[1]
    scaled = np.ldexp(residual, -exponent)
    leaves = (scaled[i : i + rows] for i in range(0, len(scaled), rows))
    sums = [np.sum(leaf * leaf) for leaf in leaves]
    return math.ldexp(math.sqrt(math.fsum(sums) * h * h), exponent)


def _horner(x, coef):
    """coef[0] * x**N + ... + coef[N], each step a new array."""
    ans = x * coef[0] + coef[1]
    for c in coef[2:]:
        ans = ans * x + c
    return ans


def _horner1(x, coef):
    """_horner with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _half_erfc_reference(z, band):
    """erfc(z) / 2 on |x| band 0 (by erf), 1 or 2 (by exp(-z^2)), as Cephes forms it."""
    if band == 0:
        z2 = z * z
        return (1.0 - _horner(z2, _normal._T) * z / _horner1(z2, _normal._U)) * 0.5
    p, q = ((_normal._P, _normal._Q), (_normal._R, _normal._S))[band - 1]
    return np.exp(-z * z) * _horner(z, p) / _horner1(z, q) * 0.5


def ndtr_reference(a):
    """Cephes ndtr with the package's coefficients and branch edges.

    x = a / sqrt(2); |x| < 1/sqrt(2) takes erf, the bands [1/sqrt(2), 1),
    [1, 8) and [8, sqrt(MAXLOG)) take erfc / 2 of -x (x < 0) or one minus
    that of x, and |x| beyond saturates to 0 or 1. Each branch is chosen by
    a mask on the values, in any order.
    """
    x = np.asarray(a, dtype=float) * _normal._SQRT1_2
    out = np.full(x.shape, np.nan)
    ax = np.abs(x)
    edges = _normal._EDGES
    central = ax < edges[0]
    x2 = x[central] * x[central]
    out[central] = _horner(x2, _normal._T) * x[central] / _horner1(x2, _normal._U) * 0.5 + 0.5
    for band in range(3):
        inside = (edges[band] <= ax) & (ax < edges[band + 1])
        below, above = inside & (x < 0.0), inside & (x > 0.0)
        out[below] = _half_erfc_reference(-x[below], band)
        out[above] = 1.0 - _half_erfc_reference(x[above], band)
    out[ax >= edges[-1]] = np.where(x[ax >= edges[-1]] < 0.0, 0.0, 1.0)
    return out


def ks_reference(samples, cdf):
    """KS statistic by the sorted-sample form: np.sort, cdf, then both ramps."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n)))


def normal_ks_reference(samples, mean, std):
    """ks_reference against N(mean, std^2): ndtr_reference((x - mean) / std)."""
    return ks_reference(samples, lambda x: ndtr_reference((x - mean) / std))


def mode_starts_reference(positions):
    """(2, n) mode coordinates of (n, 2) positions, stacked from two new rows."""
    return np.vstack(mode_coordinates(positions[:, 0], positions[:, 1]))


def mode_positions_reference(a, b, u0):
    """(..., 2) positions of the mode map (a, b) applied to u0, stacked."""
    cm, rel = a[0] * u0[0] + b[0], a[1] * u0[1] + b[1]
    return np.stack([cm + 0.5 * rel, cm - 0.5 * rel], axis=-1)


def substream_normals_reference(seed, first_sample, n, columns=2):
    """(n, columns) normals in one pass: every Philox word of the n counter
    blocks drawn at once, mapped to uniforms and through ndtri as whole arrays."""
    bitgen = Philox(key=seed)
    bitgen.advance(first_sample)
    raw = bitgen.random_raw(4 * n).reshape(n, 4)[:, :columns]
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return _normal.ndtri(np.minimum(u, 1.0 - 2.0**-53))


def sample_equilibrium_reference(state, n, seed, first_sample=0):
    """(n, 2) draws from |psi(.,.,0)|^2, column-stacked from new arrays."""
    z = substream_normals(seed, first_sample, n)
    big_y = state.cm_mode.center0 + state.cm_mode.sigma0 * z[:, 0]
    small_y = state.rel_mode.center0 + state.rel_mode.sigma0 * z[:, 1]
    return np.column_stack([big_y + 0.5 * small_y, big_y - 0.5 * small_y])
