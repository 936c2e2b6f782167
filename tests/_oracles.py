"""Independent numerical oracles used by the test suite.

The spectral propagator evolves a sampled Gaussian packet with the exact
free kinetic phase in momentum space and measures moments by quadrature;
it shares no code (and no closed-form width law) with the package. The RK4
reference integrates the mode guidance fields stage by stage on arrays,
written out from the textbook method rather than the package's step maps.
The adaptive reference is the scalar Dormand-Prince step loop, one
trajectory at a time, with its own copy of the tableau; it takes each step
factor through np.power on a one-element array, and the package's lane loop,
which takes all lanes' factors in one np.power call, must match it bit for
bit. The continuity reference evaluates every
stage of the residual over the whole grid at once, with no blocking of rows,
from the package's own density and velocity: it checks the blocking, not
the physics. The free Gaussian amplitude is the textbook packet, boosted
and spread, written from its formula and using nothing of the package; the
finite-difference velocity differences it.
"""

import math

import numpy as np

from bohm_equilibrium.guidance import _pair_velocity
from bohm_equilibrium.model import eval_density


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


def rk4_reference(modes, hbar, u0, dt, n_steps, record_stride=0, t0=0.0):
    """Classical four-stage RK4 on the decoupled mode fields, step by step.

    modes holds one (sigma0, coord_mass, center0, wavenumber) tuple per row
    of u0 (shape (rows, n)). Each row moves in v = hbar*k/m + (u - c(t)) *
    b^2 t / (1 + b^2 t^2) with b = hbar / (2 m sigma0^2) and c(t) =
    center0 + hbar*k*t/m. Returns the states at step 0, every
    record_stride-th step (if record_stride > 0) and step n_steps.
    """
    params = np.array(modes, dtype=float)
    sigma0, mass, center0, wavenumber = (params[:, i : i + 1] for i in range(4))
    b = hbar / (2.0 * mass * sigma0**2)
    group = hbar * wavenumber / mass

    def field(t, u):
        return group + (u - (center0 + group * t)) * (b * b * t / (1.0 + (b * t) ** 2))

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
    v1, v2 = _pair_velocity(state, t, yy1, yy2)
    flux1 = rho * v1
    flux2 = rho * v2

    inner1 = slice(1, -1)
    rho_plus = eval_density(state, yy1[inner1], yy2[:, inner1], t + grid.tau)
    rho_minus = eval_density(state, yy1[inner1], yy2[:, inner1], t - grid.tau)
    dt_rho = (rho_plus - rho_minus) / (2.0 * grid.tau)
    div1 = (flux1[2:, 1:-1] - flux1[:-2, 1:-1]) / (2.0 * grid.h)
    div2 = (flux2[1:-1, 2:] - flux2[1:-1, :-2]) / (2.0 * grid.h)
    residual = dt_rho + div1 + div2

    max_norm = float(np.max(np.abs(residual)))
    l2_norm = float(math.sqrt(np.sum(residual * residual) * grid.h * grid.h))
    return residual, max_norm, l2_norm
