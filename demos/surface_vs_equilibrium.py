"""Two ensembles, one state: pinned constraint surface vs equilibrium.

Start one ensemble exactly on y1 + y2 = 0 and another sampled from |psi|^2,
then propagate both with the same guidance field. The surface ensemble
keeps y1 + y2 = 0 to the last bit at every time; the equilibrium ensemble's
y1 + y2 width follows 2*sigma_cm(t) and grows by orders of magnitude. Both
behaviors are exact consequences of the same velocity field: the surface is
invariant but carries zero probability weight.
"""

import numpy as np

from bohm_equilibrium import (
    IntegratorConfig,
    TwoParticleState,
    constraint_width,
    propagate_ensemble,
    sample_constraint_surface,
    sample_equilibrium,
)


def main():
    state = TwoParticleState.from_widths(sigma_narrow=0.05, sigma_wide=1.0)
    config = IntegratorConfig(dt=1e-3, t_final=2.0, record_stride=250)
    n = 2000

    surface = propagate_ensemble(
        state, sample_constraint_surface(state, n, seed=42), config
    )
    equilibrium = propagate_ensemble(
        state, sample_equilibrium(state, n, seed=42), config
    )

    print(f"n = {n} trajectories each, t in [0, {config.t_final}]")
    print(
        f"{'t':>6} {'surface max|y1+y2|':>20} {'equil std(y1+y2)':>18} "
        f"{'analytic 2*sigma_cm':>20}"
    )
    for t, on_surface, in_equilibrium in zip(
        surface.times, surface.frames(), equilibrium.frames()
    ):
        sums_surface = np.abs(on_surface[:, 0] + on_surface[:, 1]).max()
        sums_equil = np.std(in_equilibrium[:, 0] + in_equilibrium[:, 1], ddof=1)
        print(
            f"{t:6.2f} {sums_surface:20.3e} {sums_equil:18.4f} "
            f"{constraint_width(state, float(t), 'sum'):20.4f}"
        )

    print()
    print("the y1 - y2 spread is identical in both ensembles (the wide mode")
    print("does not care where the narrow coordinate started):")
    diff_surface = np.std(
        surface.final_positions[:, 0] - surface.final_positions[:, 1], ddof=1
    )
    diff_equil = np.std(
        equilibrium.final_positions[:, 0] - equilibrium.final_positions[:, 1], ddof=1
    )
    print(
        f"  surface {diff_surface:.4f}, equilibrium {diff_equil:.4f}, "
        f"analytic {constraint_width(state, config.t_final, 'difference'):.4f}"
    )


if __name__ == "__main__":
    main()
