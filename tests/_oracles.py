"""Independent numerical oracles used by the test suite.

The spectral propagator evolves a sampled Gaussian packet with the exact
free kinetic phase in momentum space and measures moments by quadrature;
it shares no code (and no closed-form width law) with the package. The RK4
reference integrates the mode guidance fields stage by stage on arrays,
written out from the textbook method rather than the package's step maps.
The continuity reference evaluates every stage of the residual over the
whole grid at once, with no blocking of rows.
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
