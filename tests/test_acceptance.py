"""Acceptance gate: the seven headline properties at full scale.

Each test prints one PASS/FAIL line with the measured values; the lines
bypass output capture so they show up in a plain pytest run. Tolerances are
stated inline next to each assert.
"""

import math
import time

import numpy as np
import pytest

from bohm_equilibrium import (
    IntegratorConfig,
    TwoParticleState,
    constraint_surface_experiment,
    continuity_residual,
    equivariance_check,
    grid_for_state,
    integrate_trajectory,
    mode_coordinates,
    particle_coordinates,
    regularization_sweep,
    substream_normals,
    velocity,
    velocity_fd,
)
from bohm_equilibrium.cli import main as cli_main


def default_state():
    return TwoParticleState.from_widths(sigma_narrow=0.05, sigma_wide=1.0)


def default_config(**overrides):
    settings = {"dt": 1e-3, "t_final": 2.0}
    settings.update(overrides)
    return IntegratorConfig(**settings)


@pytest.fixture
def verdict(capsys):
    def emit(number, ok, detail):
        with capsys.disabled():
            print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")
        return ok

    return emit


def test_criterion_1_equivariance(verdict):
    # KS < 0.01 and stds within 2% for all four observables, three seeds,
    # n = 1e5 at t = 2; wall time under 60 s
    state = default_state()
    config = default_config()
    started = time.time()
    worst_ks = 0.0
    worst_std = 0.0
    for seed in (42, 43, 44):
        report = equivariance_check(state, 100_000, seed, config, [2.0])[0]
        worst_ks = max(worst_ks, report.max_ks)
        worst_std = max(
            worst_std,
            max(
                abs(s.empirical_std / s.analytic_std - 1.0)
                for s in report.observables
            ),
        )
    elapsed = time.time() - started
    ok = worst_ks < 0.01 and worst_std < 0.02 and elapsed < 60.0
    assert verdict(
        1,
        ok,
        f"max KS {worst_ks:.4g} (< 0.01), max std dev {worst_std:.3%} (< 2%), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_constraint_preservation(verdict):
    # 1e3 surface starts keep |y1+y2| <= 1e-9 and width < 1e-9 over [0, 2]
    # while the equilibrium width prediction exceeds 1
    state = default_state()
    config = default_config(record_stride=1)
    report = constraint_surface_experiment(state, 1000, 42, config)
    ok = (
        report.max_abs_sum <= 1e-9
        and report.sum_width_empirical < 1e-9
        and report.sum_width_equilibrium > 1.0
    )
    assert verdict(
        2,
        ok,
        f"max |y1+y2| {report.max_abs_sum:.3g} (<= 1e-9), width "
        f"{report.sum_width_empirical:.3g} (< 1e-9) vs equilibrium "
        f"{report.sum_width_equilibrium:.4g} (> 1)",
    )


def test_criterion_3_regularization_sweep(verdict):
    # widths {0.4, 0.2, 0.1, 0.05} at n = 5e4: KS < 0.01 per row, R strictly
    # increasing, R within 5% of the spread asymptote for the two smallest,
    # R*dy_i == dy_f bitwise; wall time under 90 s
    state = default_state()
    config = default_config()
    widths = (0.4, 0.2, 0.1, 0.05)
    started = time.time()
    result = regularization_sweep(state, widths, 50_000, 42, config)
    elapsed = time.time() - started
    ks_ok = all(row.ks < 0.01 for row in result.rows)
    r_values = [row.r for row in result.rows]
    monotone = all(b > a for a, b in zip(r_values, r_values[1:]))
    identity = all(row.r * row.delta_y_i == row.delta_y_f for row in result.rows)
    asym_dev = []
    for row in result.rows[-2:]:
        sigma0 = 0.5 * row.delta_y_i
        asymptote = config.t_final / (2.0 * 2.0 * sigma0**2)  # hbar t/(2 m_c s0^2)
        asym_dev.append(abs(row.r - asymptote) / asymptote)
    asym_ok = all(dev <= 0.05 for dev in asym_dev)
    ok = ks_ok and monotone and identity and asym_ok and elapsed < 90.0
    assert verdict(
        3,
        ok,
        f"max KS {max(row.ks for row in result.rows):.4g} (< 0.01), R "
        f"{r_values[0]:.4g}..{r_values[-1]:.4g} increasing={monotone}, identity "
        f"exact={identity}, asymptote dev {max(asym_dev):.2%} (<= 5%), "
        f"{elapsed:.1f}s (< 90s)",
    )


def test_criterion_3_adaptive_sweep_to_narrow_widths(verdict):
    # the adaptive sweep past rk4's stiffness limit, down to R = 2e6 at
    # n = 2e4: KS < 1.95/sqrt(n) per row and each empirical final width
    # within 2% of R*dy_i (the std's standard error is about 0.5%); wall
    # time under 90 s
    state = default_state()
    config = IntegratorConfig(method="rk45", t_final=2.0)
    n = 20_000
    started = time.time()
    result = regularization_sweep(state, (0.02, 0.01, 0.005, 0.001), n, 42, config)
    elapsed = time.time() - started
    worst_ks = max(row.ks for row in result.rows)
    worst_width = max(
        abs(row.delta_y_f_empirical / row.delta_y_f - 1.0) for row in result.rows
    )
    ok = worst_ks < 1.95 / math.sqrt(n) and worst_width < 0.02 and elapsed < 90.0
    assert verdict(
        "3 (rk45)",
        ok,
        f"max KS {worst_ks:.4g} (< {1.95 / math.sqrt(n):.4g}), R up to "
        f"{result.rows[-1].r:.4g}, max width dev {worst_width:.2%} (< 2%), "
        f"{elapsed:.1f}s (< 90s)",
    )


def test_criterion_4_continuity_convergence(verdict):
    # residual ratio between (h, tau) and (h/2, tau/2) in [3.5, 4.5],
    # narrow (0.05) and wide (1.0) states, grid covering ±5 marginal stds
    ratios = {}
    for sigma_narrow in (0.05, 1.0):
        state = TwoParticleState.from_widths(sigma_narrow, 1.0)
        grid = grid_for_state(state, 2.0)
        coarse = continuity_residual(state, grid, 2.0)
        fine = continuity_residual(state, grid.refined(), 2.0)
        ratios[sigma_narrow] = (
            coarse.max_norm / fine.max_norm,
            coarse.l2_norm / fine.l2_norm,
        )
    ok = all(
        3.5 <= value <= 4.5 for pair in ratios.values() for value in pair
    )
    detail = ", ".join(
        f"sigma={key}: max {pair[0]:.3f}, L2 {pair[1]:.3f}" for key, pair in ratios.items()
    )
    assert verdict(4, ok, f"{detail} (all in [3.5, 4.5])")


def test_criterion_5_integrator_exactness(verdict):
    # dt = 1e-3 trajectory within 1e-6 relative of the scaling solution over
    # [0, 10]; halving dt from 5e-3 to 2.5e-3 shrinks the error 12-20x
    state = default_state()
    start = (0.3, -0.2)
    cm0, rel0 = state.evolved(0.0)
    big0, small0 = mode_coordinates(*start)

    def exact(t):
        cmt, relt = state.evolved(t)
        return (
            cmt.center + (big0 - cm0.center) * cmt.sigma / cm0.sigma,
            relt.center + (small0 - rel0.center) * relt.sigma / rel0.sigma,
        )

    config = IntegratorConfig(dt=1e-3, t_final=10.0, record_stride=500)
    trajectory = integrate_trajectory(state, start, config)
    worst = 0.0
    for t, (p1, p2) in zip(trajectory.times[1:], trajectory.positions[1:]):
        big, small = mode_coordinates(p1, p2)
        big_e, small_e = exact(t)
        worst = max(worst, abs(big - big_e) / abs(big_e), abs(small - small_e) / abs(small_e))

    def final_error(dt):
        traj = integrate_trajectory(state, start, IntegratorConfig(dt=dt, t_final=10.0))
        big, small = mode_coordinates(*traj.positions[-1])
        big_e, small_e = exact(10.0)
        return max(abs(big - big_e) / abs(big_e), abs(small - small_e) / abs(small_e))

    ratio = final_error(5e-3) / final_error(2.5e-3)
    ok = worst <= 1e-6 and 12.0 <= ratio <= 20.0
    assert verdict(
        5,
        ok,
        f"max rel error {worst:.3g} (<= 1e-6) at dt=1e-3, halving ratio "
        f"{ratio:.2f} (in [12, 20])",
    )


def test_criterion_6_velocity_oracle_cross_check(verdict):
    # closed-form velocity vs finite differences at 1e3 in-support points:
    # rel error <= 1e-6 at h = 1e-4 and O(h^2) ratio in [3.5, 4.5]
    state = default_state()
    t = 2.0
    cm, rel = state.evolved(t)
    z = substream_normals(777, 0, 1000)
    y1, y2 = particle_coordinates(
        cm.center + cm.sigma * z[:, 0], rel.center + rel.sigma * z[:, 1]
    )
    v = velocity(state, y1, y2, t)
    speed = np.hypot(v.v1, v.v2)

    def errors(h):
        fd = velocity_fd(state, y1, y2, t, h=h)
        return np.hypot(fd.v1 - v.v1, fd.v2 - v.v2)

    rel_err = float((errors(1e-4) / speed).max())
    ratio = float(errors(1e-4).max() / errors(5e-5).max())
    ok = rel_err <= 1e-6 and 3.5 <= ratio <= 4.5
    assert verdict(
        6,
        ok,
        f"max rel error {rel_err:.3g} (<= 1e-6) at h=1e-4, order ratio "
        f"{ratio:.3f} (in [3.5, 4.5])",
    )


def test_criterion_7_byte_identical_parallel_csv(verdict, tmp_path):
    # identical config and seed give byte-identical CSV at widths 1 and 8
    outputs = {}
    for width in (1, 8):
        config = tmp_path / f"p{width}.cfg"
        config.write_text(f"parallel = {width}\n")
        out = tmp_path / f"eq{width}.csv"
        code = cli_main(
            ["equivariance", "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        outputs[width] = out.read_bytes()
    ok = outputs[1] == outputs[8]
    assert verdict(
        7,
        ok,
        f"equivariance CSV identical across parallel widths 1 and 8 "
        f"({len(outputs[1])} bytes)",
    )
