"""Equivariance in action: transported samples stay |psi|^2-distributed.

Draw an ensemble from |psi(.,.,0)|^2, push every sample along its
trajectory, and test the four linear observables y1, y2, y1+y2, y1-y2
against their exact normal laws at several times. The KS statistics stay at
the sampling-noise level 1.95/sqrt(n) no matter how far the packets spread.
If matplotlib is installed, histograms are saved next to this script.
"""

import numpy as np

from bohm_equilibrium import (
    IntegratorConfig,
    TwoParticleState,
    equivariance_check,
    observable_normal,
    propagate_ensemble,
    sample_equilibrium,
)


def main():
    state = TwoParticleState.from_widths(sigma_narrow=0.05, sigma_wide=1.0)
    config = IntegratorConfig(dt=1e-3, t_final=2.0)
    n = 20_000
    times = [0.0, 0.5, 1.0, 2.0]

    reports = equivariance_check(state, n, 42, config, times)
    noise = 1.95 / np.sqrt(n)
    print(f"n = {n}, KS noise level ~ {noise:.4f}")
    print(f"{'t':>5} {'observable':>10} {'empirical std':>14} {'analytic':>10} {'KS':>9}")
    for report in reports:
        for stats in report.observables:
            print(
                f"{report.t:5.1f} {stats.observable:>10} {stats.empirical_std:14.4f} "
                f"{stats.analytic_std:10.4f} {stats.ks:9.4f}"
            )

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping histogram figure")
        return

    positions = propagate_ensemble(
        state, sample_equilibrium(state, n, seed=42), config
    ).final_positions
    sums = positions[:, 0] + positions[:, 1]
    mean, std = observable_normal(state, config.t_final, "y1+y2")
    grid = np.linspace(mean - 4 * std, mean + 4 * std, 400)
    pdf = np.exp(-0.5 * ((grid - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi))

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.hist(sums, bins=80, density=True, alpha=0.6, label="transported samples")
    ax.plot(grid, pdf, "k-", lw=1.5, label="analytic |psi|^2 marginal")
    ax.set_xlabel("y1 + y2 at t = 2")
    ax.set_ylabel("density")
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("equivariance_histogram.png", dpi=150)
    print("\nwrote equivariance_histogram.png")


if __name__ == "__main__":
    main()
