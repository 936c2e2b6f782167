"""Sampling determinism and integrator correctness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohm_equilibrium.dynamics as dynamics
from bohm_equilibrium import (
    EnsembleFailureError,
    IntegratorConfig,
    StepUnderflowError,
    SurfaceMismatchError,
    TwoParticleState,
    integrate_trajectory,
    mode_coordinates,
    propagate_ensemble,
    sample_constraint_surface,
    sample_equilibrium,
    substream_normals,
    substream_uniforms,
)
from bohm_equilibrium.dynamics import _rk45_advance

from _oracles import rk4_reference


def default_state():
    return TwoParticleState.from_widths(0.05, 1.0)


def scaling_solution(state, start, t):
    """Exact trajectory u(t) = c(t) + (u(0) - c(0)) * sigma(t)/sigma(0)."""
    cm0, rel0 = state.evolved(0.0)
    cmt, relt = state.evolved(t)
    big0, small0 = mode_coordinates(*start)
    big = cmt.center + (big0 - cm0.center) * cmt.sigma / cm0.sigma
    small = relt.center + (small0 - rel0.center) * relt.sigma / rel0.sigma
    return big, small


def test_uniforms_open_interval_and_deterministic():
    u = substream_uniforms(42, 0, 10_000)
    assert u.shape == (10_000, 4)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    again = substream_uniforms(42, 0, 10_000)
    assert np.array_equal(u, again)
    assert not np.array_equal(u, substream_uniforms(43, 0, 10_000))


def test_substreams_are_random_access():
    whole = substream_uniforms(42, 0, 1000)
    tail = substream_uniforms(42, 600, 400)
    assert np.array_equal(whole[600:], tail)
    z_whole = substream_normals(42, 0, 1000)
    z_tail = substream_normals(42, 600, 400)
    assert np.array_equal(z_whole[600:], z_tail)


def test_seed_validation():
    with pytest.raises(ValueError):
        substream_uniforms(-1, 0, 10)
    with pytest.raises(ValueError):
        substream_uniforms(2**64, 0, 10)
    with pytest.raises(ValueError):
        substream_uniforms(1.5, 0, 10)


def test_sample_equilibrium_statistics():
    state = default_state()
    positions = sample_equilibrium(state, 1_000_000, seed=42)
    sums = positions[:, 0] + positions[:, 1]
    diffs = positions[:, 0] - positions[:, 1]
    assert np.std(sums, ddof=1) == pytest.approx(0.1, rel=5e-3)
    assert np.std(diffs, ddof=1) == pytest.approx(1.0, rel=5e-3)
    # mode draws are independent: correlation at noise level
    corr = np.corrcoef(sums, diffs)[0, 1]
    assert abs(corr) < 5e-3


def test_sample_equilibrium_chunk_invariance():
    state = default_state()
    whole = sample_equilibrium(state, 1000, seed=42)
    tail = sample_equilibrium(state, 400, seed=42, first_sample=600)
    assert np.array_equal(whole[600:], tail)


def test_sample_constraint_surface_exact_zero():
    state = default_state()
    positions = sample_constraint_surface(state, 1000, seed=42)
    sums = positions[:, 0] + positions[:, 1]
    assert np.all(sums == 0.0)
    assert np.std(positions[:, 0] - positions[:, 1], ddof=1) == pytest.approx(
        1.0, rel=0.1
    )
    single = sample_constraint_surface(state, 1, seed=42)
    assert single.shape == (1, 2)


WIDTH = st.floats(1e-2, 10.0)
OFFSET = st.floats(-5.0, 5.0)


@settings(max_examples=100, deadline=None)
@given(
    widths=st.tuples(WIDTH, WIDTH),
    correlation=st.sampled_from(["sum", "difference"]),
    wide_center=OFFSET,
    wide_wavenumber=OFFSET,
    seed=st.integers(0, 2**64 - 1),
)
def test_surface_ensemble_stays_exactly_on_surface(
    widths, correlation, wide_center, wide_wavenumber, seed
):
    # the narrow mode is centered and at rest, so its coordinate stays 0.0
    wide = "rel" if correlation == "sum" else "cm"
    wide_mode = {f"{wide}_center": wide_center, f"{wide}_wavenumber": wide_wavenumber}
    state = TwoParticleState.from_widths(*widths, correlation=correlation, **wide_mode)
    start = sample_constraint_surface(state, 64, seed)
    config = IntegratorConfig(dt=1e-2, t_final=1.0, record_stride=1)
    ensemble = propagate_ensemble(state, start, config)
    frames = ensemble.recorded_positions
    assert frames.shape == (101, 64, 2)
    sign = 1.0 if correlation == "sum" else -1.0
    assert np.all(frames[:, :, 0] + sign * frames[:, :, 1] == 0.0)


def test_sample_constraint_surface_difference_orientation():
    state = TwoParticleState.from_widths(0.05, 1.0, correlation="difference")
    positions = sample_constraint_surface(state, 500, seed=3)
    assert np.all(positions[:, 0] - positions[:, 1] == 0.0)


def test_sample_constraint_surface_mismatch():
    state = default_state()
    with pytest.raises(SurfaceMismatchError):
        sample_constraint_surface(state, 10, seed=42, surface="difference")
    with pytest.raises(ValueError):
        sample_constraint_surface(state, 10, seed=42, surface="diagonal")
    with pytest.raises(ValueError):
        sample_constraint_surface(state, 0, seed=42)


def test_integrator_config_validation():
    IntegratorConfig()
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk45", tolerance=1e-15)
    with pytest.raises(ValueError):
        IntegratorConfig(method="rk45", tolerance=0.5)
    with pytest.raises(ValueError):
        IntegratorConfig(t_final=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(record_stride=-1)


def test_rk4_matches_scaling_solution():
    state = default_state()
    start = (0.3, -0.2)
    config = IntegratorConfig(dt=1e-3, t_final=2.0)
    traj = integrate_trajectory(state, start, config)
    assert traj.times[0] == 0.0
    big, small = mode_coordinates(*traj.positions[-1])
    big_e, small_e = scaling_solution(state, start, 2.0)
    assert abs(big - big_e) / abs(big_e) < 1e-6
    assert abs(small - small_e) / abs(small_e) < 1e-6


def test_rk4_fourth_order_convergence():
    state = default_state()
    start = (0.3, -0.2)

    def error(dt):
        config = IntegratorConfig(dt=dt, t_final=10.0)
        traj = integrate_trajectory(state, start, config)
        big, small = mode_coordinates(*traj.positions[-1])
        big_e, small_e = scaling_solution(state, start, 10.0)
        return max(abs(big - big_e) / abs(big_e), abs(small - small_e) / abs(small_e))

    assert 12.0 < error(5e-3) / error(2.5e-3) < 20.0


def test_mode_center_is_fixed_point():
    state = default_state()
    traj = integrate_trajectory(state, (0.0, 0.0), IntegratorConfig(dt=1e-3, t_final=2.0))
    assert traj.positions[-1][0] == 0.0
    assert traj.positions[-1][1] == 0.0


def test_record_stride_times():
    state = default_state()
    config = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=2)
    traj = integrate_trajectory(state, (0.1, 0.2), config)
    np.testing.assert_allclose(traj.times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)
    config = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=3)
    traj = integrate_trajectory(state, (0.1, 0.2), config)
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)


def test_rk45_trajectory_matches_scaling_solution():
    state = default_state()
    start = (0.3, -0.2)
    config = IntegratorConfig(method="rk45", tolerance=1e-9, t_final=2.0)
    traj = integrate_trajectory(state, start, config)
    assert np.all(np.diff(traj.times) > 0.0)
    big, small = mode_coordinates(*traj.positions[-1])
    big_e, small_e = scaling_solution(state, start, 2.0)
    assert abs(big - big_e) / abs(big_e) < 1e-6
    assert abs(small - small_e) / abs(small_e) < 1e-6


def test_rk45_step_underflow():
    def blowup(t, y):
        return y / (1.0 - t)

    with pytest.raises(StepUnderflowError):
        _rk45_advance(blowup, np.array([1.0]), 0.0, 2.0, 1e-9)


def test_trajectory_rejects_bad_start():
    state = default_state()
    with pytest.raises(ValueError):
        integrate_trajectory(state, (float("inf"), 0.0), IntegratorConfig())


def test_ensemble_parallel_widths_bit_identical():
    state = default_state()
    starts = sample_equilibrium(state, 300, seed=42)
    config = IntegratorConfig(dt=1e-2, t_final=1.0, record_stride=50)
    reference = propagate_ensemble(state, starts, config, parallel_width=1)
    for width in (2, 3, 8):
        other = propagate_ensemble(state, starts, config, parallel_width=width)
        assert np.array_equal(reference.final_positions, other.final_positions)
        assert np.array_equal(reference.recorded_positions, other.recorded_positions)
        assert np.array_equal(reference.times, other.times)


def test_ensemble_more_workers_than_samples():
    state = default_state()
    starts = sample_equilibrium(state, 3, seed=42)
    config = IntegratorConfig(dt=1e-2, t_final=0.5)
    one = propagate_ensemble(state, starts, config, parallel_width=1)
    many = propagate_ensemble(state, starts, config, parallel_width=16)
    assert np.array_equal(one.final_positions, many.final_positions)


def test_ensemble_finals_match_trajectories():
    state = default_state()
    starts = sample_equilibrium(state, 5, seed=9)
    config = IntegratorConfig(dt=1e-2, t_final=1.0)
    ensemble = propagate_ensemble(state, starts, config)
    for i in range(5):
        traj = integrate_trajectory(state, tuple(starts[i]), config)
        np.testing.assert_allclose(
            ensemble.final_positions[i], traj.positions[-1], rtol=0, atol=5e-14
        )


def test_ensemble_no_crossing_in_mode_coordinates():
    # the mode flow is affine with positive stretch: ordering is preserved
    state = default_state()
    starts = sample_equilibrium(state, 100, seed=11)
    config = IntegratorConfig(dt=1e-3, t_final=2.0)
    ensemble = propagate_ensemble(state, starts, config)
    big0, small0 = mode_coordinates(starts[:, 0], starts[:, 1])
    big1, small1 = mode_coordinates(
        ensemble.final_positions[:, 0], ensemble.final_positions[:, 1]
    )
    assert np.array_equal(np.argsort(big0), np.argsort(big1))
    assert np.array_equal(np.argsort(small0), np.argsort(small1))


def test_ensemble_recorded_times_grid():
    state = default_state()
    starts = sample_equilibrium(state, 10, seed=2)
    config = IntegratorConfig(dt=0.25, t_final=1.0, record_stride=2)
    ensemble = propagate_ensemble(state, starts, config)
    np.testing.assert_allclose(ensemble.times, [0.0, 0.5, 1.0], atol=1e-15)
    assert ensemble.recorded_positions.shape == (3, 10, 2)
    np.testing.assert_allclose(ensemble.recorded_positions[0], starts, atol=0)
    np.testing.assert_allclose(
        ensemble.recorded_positions[-1], ensemble.final_positions, atol=0
    )


def test_ensemble_input_validation():
    state = default_state()
    config = IntegratorConfig()
    with pytest.raises(ValueError):
        propagate_ensemble(state, np.zeros((4, 3)), config)
    with pytest.raises(ValueError):
        propagate_ensemble(state, np.array([[0.0, np.nan]]), config)
    with pytest.raises(ValueError):
        propagate_ensemble(state, np.zeros((4, 2)), config, parallel_width=0)
    with pytest.raises(ValueError):
        propagate_ensemble(
            state,
            np.zeros((4, 2)),
            IntegratorConfig(method="rk45", record_stride=1),
        )


def test_ensemble_failure_threshold(monkeypatch):
    state = default_state()
    starts = sample_equilibrium(state, 20, seed=1)

    def always_underflow(*args, **kwargs):
        raise StepUnderflowError("forced")

    monkeypatch.setattr(dynamics, "_rk45_advance", always_underflow)
    with pytest.raises(EnsembleFailureError):
        propagate_ensemble(
            state, starts, IntegratorConfig(method="rk45", t_final=1.0)
        )


def test_ensemble_start_time_offset():
    # propagating 0 -> 1 -> 2 in segments equals one 0 -> 2 run up to
    # the roundtrip through particle coordinates
    state = default_state()
    starts = sample_equilibrium(state, 50, seed=4)
    whole = propagate_ensemble(state, starts, IntegratorConfig(dt=1e-3, t_final=2.0))
    first = propagate_ensemble(state, starts, IntegratorConfig(dt=1e-3, t_final=1.0))
    second = propagate_ensemble(
        state,
        first.final_positions,
        IntegratorConfig(dt=1e-3, t_final=1.0),
        t0=1.0,
    )
    np.testing.assert_allclose(
        whole.final_positions, second.final_positions, rtol=0, atol=1e-12
    )


def reference_mode_coordinates(state, starts, dt, n_steps, record_stride=0):
    modes = [
        (mode.sigma0, mode.coord_mass, mode.center0, mode.wavenumber)
        for mode in (state.cm_mode, state.rel_mode)
    ]
    u0 = np.vstack(mode_coordinates(starts[:, 0], starts[:, 1]))
    return rk4_reference(modes, state.params.hbar, u0, dt, n_steps, record_stride)


@pytest.mark.parametrize("sigma_narrow", [0.05, 0.03])
def test_composed_rk4_matches_stage_by_stage_reference(sigma_narrow):
    # the ensemble applies composed per-step maps once; every recorded frame
    # and the final state must agree with a literal RK4 loop to roundoff
    state = TwoParticleState.from_widths(sigma_narrow, 1.0)
    starts = sample_equilibrium(state, 200, seed=5)
    config = IntegratorConfig(dt=1e-3, t_final=2.0, record_stride=300)
    ensemble = propagate_ensemble(state, starts, config)
    frames = reference_mode_coordinates(state, starts, 1e-3, 2000, record_stride=300)
    np.testing.assert_allclose(
        ensemble.times, [0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.0], atol=1e-15
    )
    assert len(frames) == len(ensemble.recorded_positions)
    final = propagate_ensemble(state, starts, IntegratorConfig(dt=1e-3, t_final=2.0))
    for positions, reference in [
        *zip(ensemble.recorded_positions, frames),
        (final.final_positions, frames[-1]),
    ]:
        composed = np.vstack(mode_coordinates(positions[:, 0], positions[:, 1]))
        assert np.all(np.abs(composed - reference) <= 1e-12 * (1.0 + np.abs(reference)))


def test_composed_rk4_keeps_truncation_error():
    # composing the exact scaling flow would zero this error and make the
    # halving-ratio check a tautology; the narrow mode must still show RK4's
    state = default_state()
    start = (0.3, -0.2)
    config = IntegratorConfig(dt=5e-3, t_final=10.0)
    ensemble = propagate_ensemble(state, np.array([start]), config)
    big, _ = mode_coordinates(*ensemble.final_positions[0])
    big_e, _ = scaling_solution(state, start, 10.0)
    assert abs(big - big_e) / abs(big_e) > 1e-6
    reference = reference_mode_coordinates(state, np.array([start]), 5e-3, 2000)[-1]
    assert abs(big - reference[0, 0]) <= 1e-12 * (1.0 + abs(reference[0, 0]))
