"""Sampling determinism and integrator correctness."""

import dataclasses
import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bohm_equilibrium.dynamics as dynamics
from bohm_equilibrium import (
    EnsembleFailureError,
    IntegratorConfig,
    StepUnderflowError,
    TwoParticleState,
    integrate_trajectory,
    mode_coordinates,
    particle_coordinates,
    propagate_ensemble,
    sample_constraint_surface,
    sample_equilibrium,
    substream_normals,
    substream_uniforms,
)
from bohm_equilibrium._normal import ndtri
from bohm_equilibrium.dynamics import (
    _FRAME_CHUNK,
    _frame_abs_sum_maxima,
    _mode_rhs,
    _rk45_lanes,
    _uniforms_from_words,
)

from _oracles import (
    ReferenceOverflow,
    ReferenceUnderflow,
    rk4_reference,
    rk45_reference,
    state_modes,
)


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


def test_top_words_map_below_one():
    # the top 53-bit word's midpoint rounds to 1.0, where ndtri is +inf
    words = np.array([2**64 - 1, 2**64 - 2**11, 2**64 - 2**12, 0], dtype=np.uint64)
    u = _uniforms_from_words(words)
    assert u.tolist() == [1.0 - 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 2.0**-54]
    z = ndtri(u)
    assert np.all(np.isfinite(z))
    assert z.round(2).tolist() == [8.21, 8.21, 8.13, -8.29]


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
    frames = np.stack(list(ensemble.frames()))
    assert frames.shape == (101, 64, 2)
    sign = 1.0 if correlation == "sum" else -1.0
    assert np.all(frames[:, :, 0] + sign * frames[:, :, 1] == 0.0)


def test_sample_constraint_surface_difference_orientation():
    state = TwoParticleState.from_widths(0.05, 1.0, correlation="difference")
    positions = sample_constraint_surface(state, 500, seed=3)
    assert np.all(positions[:, 0] - positions[:, 1] == 0.0)


def test_sample_constraint_surface_mismatch():
    state = default_state()
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


def test_rk4_step_guard_checks_both_modes():
    config = IntegratorConfig(dt=1e-3)
    dynamics._check_rk4_step(default_state(), config)
    # rel mode: beta = hbar / (2 (m/2) 0.02^2) = 2500, rate * step peaks at 1.25
    wide_too_narrow = TwoParticleState.from_widths(0.05, 0.02)
    with pytest.raises(EnsembleFailureError, match="^wide mode .* use method = rk45$"):
        dynamics._check_rk4_step(wide_too_narrow, config)
    dynamics._check_rk4_step(wide_too_narrow, dataclasses.replace(config, method="rk45"))


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


def blowup(t, u):
    """Row 0 moves in y/(s - t); row 1 holds the lane's singular time s."""
    return np.vstack([u[0] / (u[1] - t), np.zeros_like(u[1])])


def test_rk45_step_underflow(monkeypatch):
    # the lane that meets y/(1 - t) underflows and ends NaN; in the same
    # call a lane whose singularity lies beyond t1 finishes as it would alone
    final, _ = _rk45_lanes(blowup, np.array([[1.0, 1.0], [1.0, 3.0]]), 0.0, 2.0, 1e-9)
    assert np.all(np.isnan(final[:, 0]))
    alone, _ = _rk45_lanes(blowup, np.array([[1.0], [3.0]]), 0.0, 2.0, 1e-9)
    assert np.array_equal(final[:, 1:], alone)
    assert final[0, 1] == pytest.approx(3.0, rel=1e-7)  # y = 3 / (3 - t)
    # both lanes do what the scalar one-trajectory loop does
    benign = rk45_reference(blowup, np.array([[1.0], [3.0]]), 0.0, 2.0, 1e-9)
    assert np.array_equal(alone, benign)
    with pytest.raises(ReferenceUnderflow):
        rk45_reference(blowup, np.array([[1.0], [1.0]]), 0.0, 2.0, 1e-9)

    monkeypatch.setattr(dynamics, "_mode_rhs", lambda state, t, u: u / (1.0 - t))
    config = IntegratorConfig(method="rk45", t_final=2.0)
    with pytest.raises(StepUnderflowError, match="fell below 1e-12"):
        integrate_trajectory(default_state(), (0.3, -0.2), config)


def test_trajectory_rejects_bad_start():
    state = default_state()
    with pytest.raises(ValueError):
        integrate_trajectory(state, (float("inf"), 0.0), IntegratorConfig())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "start, t_fail",
    [
        ((1e307, 1e307), "0.18"),  # the cm coordinate overflows on the way
        ((1e308, -1e308), "0"),  # y1 - y2 overflows at the start
    ],
    ids=["cm-on-the-way", "rel-at-start"],
)
def test_rk4_trajectory_that_overflows_raises(start, t_fail):
    config = IntegratorConfig(t_final=2.0, record_stride=1)
    with pytest.raises(EnsembleFailureError, match=f"not finite at t = {t_fail}$"):
        integrate_trajectory(default_state(), start, config)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_rk45_trajectory_that_overflows_raises():
    # the cm velocity overflows after t = 0.00182746, so every step from
    # there has a non-finite error; that is an overflow, not a stiff field
    config = IntegratorConfig(method="rk45", t_final=2.0)
    with pytest.raises(EnsembleFailureError, match="state is not finite after t = 0.00182746$"):
        integrate_trajectory(default_state(), (1e307, 1e307), config)
    u0 = np.vstack(mode_coordinates(1e307, 1e307))
    lanes, _ = _rk45_lanes(partial(_mode_rhs, default_state()), u0, 0.0, 2.0, 1e-9)
    assert np.all(np.isinf(lanes))
    with pytest.raises(ReferenceOverflow):
        rk45_reference(partial(_mode_rhs, default_state()), u0, 0.0, 2.0, 1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_rk45_trial_step_that_overflows_only_shrinks_the_step():
    # the first trial steps overflow, but the flow itself stays below the
    # largest double; shorter steps carry it to the exact answer
    state = default_state()
    start = (3e306, 0.0)
    traj = integrate_trajectory(state, start, IntegratorConfig(method="rk45", t_final=1.0))
    big_e, small_e = scaling_solution(state, start, 1.0)
    y1_e, y2_e = particle_coordinates(big_e, small_e)
    assert traj.positions[-1, 0] == pytest.approx(y1_e, rel=1e-6)
    assert traj.positions[-1, 1] == pytest.approx(y2_e, rel=1e-6)


def test_ensemble_parallel_widths_bit_identical():
    state = default_state()
    starts = sample_equilibrium(state, 300, seed=42)
    config = IntegratorConfig(dt=1e-2, t_final=1.0, record_stride=50)
    reference = propagate_ensemble(state, starts, config, parallel_width=1)
    for width in (2, 3, 8):
        other = propagate_ensemble(state, starts, config, parallel_width=width)
        assert np.array_equal(reference.final_positions, other.final_positions)
        assert np.array_equal(
            np.stack(list(reference.frames())), np.stack(list(other.frames()))
        )
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
    assert np.stack(list(ensemble.frames())).shape == (3, 10, 2)
    np.testing.assert_allclose(np.stack(list(ensemble.frames()))[0], starts, atol=0)
    np.testing.assert_allclose(
        np.stack(list(ensemble.frames()))[-1], ensemble.final_positions, atol=0
    )


def test_ensemble_frames_rebuild_recording_from_maps():
    # a recorded rk4 run stores its composed maps, not a (frames, n, 2) array
    names = [f.name for f in dataclasses.fields(dynamics.Ensemble)]
    assert [name for name in names if name.endswith("positions")] == [
        "initial_positions",
        "final_positions",
    ]
    state = default_state()
    starts = sample_equilibrium(state, 50, seed=4)
    config = IntegratorConfig(dt=1e-2, t_final=1.0, record_stride=7)
    ensemble = propagate_ensemble(state, starts, config)
    a, b = ensemble.maps
    assert a.shape == b.shape == (len(ensemble.times), 2)
    frames = list(ensemble.frames())
    assert len(frames) == len(ensemble.times) == 16
    # the first frame is the start, up to the trip through mode coordinates
    round_trip = np.column_stack(particle_coordinates(*mode_coordinates(*starts.T)))
    assert np.array_equal(frames[0], round_trip)
    np.testing.assert_allclose(frames[0], starts, rtol=0, atol=1e-15)
    assert np.array_equal(frames[-1], ensemble.final_positions)
    unrecorded = propagate_ensemble(state, starts, IntegratorConfig(dt=1e-2, t_final=1.0))
    assert unrecorded.times is None
    assert list(unrecorded.frames()) == []
    assert np.array_equal(unrecorded.final_positions, ensemble.final_positions)


@pytest.mark.parametrize("surface", ["on", "off-first", "off-last"])
@pytest.mark.parametrize(
    "n", [1, 2, _FRAME_CHUNK - 1, _FRAME_CHUNK, _FRAME_CHUNK + 1, 3 * _FRAME_CHUNK + 5]
)
def test_frame_abs_sum_maxima_match_frames(n, surface):
    state = default_state()
    if surface == "on":
        starts = sample_constraint_surface(state, n, seed=5)
    else:
        # nonzero Y, with the largest |y1 + y2| planted in the first or last chunk
        starts = sample_equilibrium(state, n, seed=5)
        starts[0 if surface == "off-first" else -1] *= 50.0
    config = IntegratorConfig(dt=1e-2, t_final=0.05, record_stride=1)
    ensemble = propagate_ensemble(state, starts, config)
    maxima = _frame_abs_sum_maxima(ensemble)
    expected = np.array([np.max(np.abs(f[:, 0] + f[:, 1])) for f in ensemble.frames()])
    assert maxima.shape == (6,)
    assert maxima.tobytes() == expected.tobytes()
    if surface == "on":
        assert maxima.tolist() == [0.0] * 6


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


def test_rk45_zero_error_grows_steps_like_reference():
    # a still field has zero error, so every step is accepted and grows 5x
    def still(t, u):
        return np.zeros_like(u)

    taken = []
    rk45_reference(still, np.ones((2, 1)), 0.0, 2.0, 1e-9, lambda t, u: taken.append(t))
    _, steps = _rk45_lanes(still, np.ones((2, 3)), 0.0, 2.0, 1e-9, record=True)
    assert [t.tolist() for t, _ in steps] == [[t] * 3 for t in taken]
    assert np.allclose(np.diff([0.0, *taken]), [0.02, 0.1, 0.5, 1.38])


def test_ensemble_failure_threshold(monkeypatch):
    # every lane meets the singularity of y/(1 - t) and underflows
    state = default_state()
    starts = sample_equilibrium(state, 20, seed=1)
    monkeypatch.setattr(dynamics, "_mode_rhs", lambda state, t, u: u / (1.0 - t))
    with pytest.raises(EnsembleFailureError, match="20 of 20"):
        propagate_ensemble(
            state, starts, IntegratorConfig(method="rk45", t_final=2.0)
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
    u0 = np.vstack(mode_coordinates(starts[:, 0], starts[:, 1]))
    return rk4_reference(state_modes(state), state.params.hbar, u0, dt, n_steps, record_stride)


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
    assert len(frames) == len(np.stack(list(ensemble.frames())))
    final = propagate_ensemble(state, starts, IntegratorConfig(dt=1e-3, t_final=2.0))
    for positions, reference in [
        *zip(np.stack(list(ensemble.frames())), frames),
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


def reference_lane(state, u0, t0, t1, tolerance, stride=0):
    """One trajectory through the scalar oracle: final u and recorded frames."""
    frames = []

    def monitor(t, u):
        frames.append((t, u))

    try:
        final = rk45_reference(partial(_mode_rhs, state), u0, t0, t1, tolerance, monitor)
    except ReferenceUnderflow:
        return np.full_like(u0, np.nan), None
    except ReferenceOverflow:
        return np.full_like(u0, np.inf), None
    kept = frames[stride - 1 :: stride] if stride else []
    kept = [(t, u) for t, u in kept if t < t1]
    times = np.array([t0, *(t for t, _ in kept), t1])
    u = np.hstack([u0, *(u for _, u in kept), final])
    return final, (times, np.column_stack(particle_coordinates(u[0], u[1])))


CENTER = st.floats(-3.0, 3.0)


@settings(max_examples=50, deadline=None)
@given(
    narrow=st.floats(1e-3, 2.0),
    correlation=st.sampled_from(["sum", "difference"]),
    centers=st.tuples(CENTER, CENTER),
    wavenumbers=st.tuples(CENTER, CENTER),
    log_tolerance=st.floats(-10.0, -5.0),
    t0=st.floats(0.0, 2.0),
    stride=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2**32),
)
def test_rk45_lanes_match_scalar_reference(
    narrow, correlation, centers, wavenumbers, log_tolerance, t0, stride, seed
):
    state = TwoParticleState.from_widths(
        narrow,
        1.0,
        correlation=correlation,
        cm_center=centers[0],
        rel_center=centers[1],
        cm_wavenumber=wavenumbers[0],
        rel_wavenumber=wavenumbers[1],
    )
    tolerance = 10.0**log_tolerance
    starts = sample_equilibrium(state, 3, seed=seed)
    u0 = np.vstack(mode_coordinates(starts[:, 0], starts[:, 1]))
    lanes, _ = _rk45_lanes(partial(_mode_rhs, state), u0, t0, t0 + 1.0, tolerance)
    for i in range(3):
        expected, _ = reference_lane(state, u0[:, i : i + 1], t0, t0 + 1.0, tolerance)
        assert np.array_equal(lanes[:, i : i + 1], expected, equal_nan=True)

    config = IntegratorConfig(
        method="rk45", tolerance=tolerance, t_final=1.0, record_stride=stride
    )
    final, recorded = reference_lane(state, u0[:, :1], t0, t0 + 1.0, tolerance, stride)
    if recorded is None:
        failure = EnsembleFailureError if np.isinf(final).any() else StepUnderflowError
        with pytest.raises(failure):
            integrate_trajectory(state, tuple(starts[0]), config, t0=t0)
    else:
        traj = integrate_trajectory(state, tuple(starts[0]), config, t0=t0)
        assert np.array_equal(traj.times, recorded[0])
        assert np.array_equal(traj.positions, recorded[1])


@settings(max_examples=50, deadline=None)
@given(
    narrow=st.floats(1e-3, 2.0),
    correlation=st.sampled_from(["sum", "difference"]),
    centers=st.tuples(CENTER, CENTER),
    wavenumbers=st.tuples(CENTER, CENTER),
    t0=st.floats(0.0, 2.0),
    n_steps=st.integers(1, 600),
    stride=st.sampled_from([1, 7, 50]),
    seed=st.integers(0, 2**32),
)
def test_composed_rk4_frames_match_stage_by_stage_reference(
    narrow, correlation, centers, wavenumbers, t0, n_steps, stride, seed
):
    state = TwoParticleState.from_widths(
        narrow,
        1.0,
        correlation=correlation,
        cm_center=centers[0],
        rel_center=centers[1],
        cm_wavenumber=wavenumbers[0],
        rel_wavenumber=wavenumbers[1],
    )
    config = IntegratorConfig(dt=1e-3, t_final=n_steps * 1e-3, record_stride=stride)
    try:
        dynamics._check_rk4_step(state, config)
    except EnsembleFailureError:
        assume(False)
    starts = sample_equilibrium(state, 5, seed=seed)
    ensemble = propagate_ensemble(state, starts, config, t0=t0)
    u0 = np.vstack(mode_coordinates(starts[:, 0], starts[:, 1]))
    steps, dt = dynamics._step_grid(config)
    frames = rk4_reference(state_modes(state), state.params.hbar, u0, dt, steps, stride, t0)
    assert len(frames) == len(ensemble.times)
    for positions, reference in zip(ensemble.frames(), frames, strict=True):
        composed = np.vstack(mode_coordinates(positions[:, 0], positions[:, 1]))
        assert np.all(np.abs(composed - reference) <= 1e-12 * (1.0 + np.abs(reference)))


# 2e5 values from 1e-14 to 1e4, zeros and NaNs planted: a one-element call
# must give the bits of the same value in a slice at any offset
_POWER_LANES = """
import numpy as np

x = 10.0 ** np.random.default_rng(7).uniform(-14.0, 4.0, 200_000)
x[::997] = 0.0
x[1::997] = np.nan
with np.errstate(divide="ignore"):
    single = np.concatenate([np.power(x[i : i + 1], -0.2) for i in range(x.size)])
    for offset in (0, 1, 3, 7, 13):
        assert np.power(x[offset:], -0.2).tobytes() == single[offset:].tobytes(), offset
"""


def test_power_bits_independent_of_length_and_offset():
    # _rk45_lanes takes every lane's step factor in one np.power call and
    # rk45_reference one lane at a time, so lanes match only if this holds
    exec(_POWER_LANES, {})


def test_power_bits_independent_of_length_and_offset_without_avx512():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    child = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", _POWER_LANES],
        env=env,
        capture_output=True,
        text=True,
    )
    if "NPY_DISABLE_CPU_FEATURES" in child.stderr:
        pytest.skip("this numpy build cannot disable its AVX-512 dispatch")
    assert child.returncode == 0, child.stderr


@settings(max_examples=100, deadline=None)
@given(
    correlation=st.sampled_from(["sum", "difference"]),
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 300),
    data=st.data(),
)
def test_sampling_chunk_invariance(correlation, seed, n, data):
    # sample i reads counter block i, so any split of the draw gives the same bits
    split = data.draw(st.integers(0, n - 1), label="split")
    state = TwoParticleState.from_widths(0.05, 1.0, correlation=correlation)
    whole = sample_equilibrium(state, n, seed)
    tail = sample_equilibrium(state, n - split, seed, first_sample=split)
    assert tail.tobytes() == whole[split:].tobytes()
    for columns in range(1, 5):
        whole = substream_uniforms(seed, 0, n, columns)
        tail = substream_uniforms(seed, split, n - split, columns)
        assert tail.tobytes() == whole[split:].tobytes()
