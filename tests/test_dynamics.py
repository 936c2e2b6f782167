"""Sampling determinism and integrator correctness."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bohm_equilibrium.dynamics as dynamics
from bohm_equilibrium import (
    EnsembleFailureError,
    IntegratorConfig,
    PhysicalParams,
    StepUnderflowError,
    TwoParticleState,
    evolve_mode,
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
from bohm_equilibrium.dynamics import _frame_abs_sum_maxima, _uniforms_from_words

from _oracles import (
    ReferenceOverflow,
    ReferenceUnderflow,
    guidance_field,
    mode_positions_reference,
    mode_starts_reference,
    rk4_reference,
    rk45_reference,
    sample_equilibrium_reference,
    state_modes,
    substream_normals_reference,
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


CHUNK = dynamics._CHUNK_BLOCKS


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("first_sample", [0, 12345])
def test_chunked_normals_match_the_whole_array_form(n, first_sample):
    # the sampler converts CHUNK counter blocks at a time; its bits are those of one pass
    for columns in range(1, 5):
        z = substream_normals(4242, first_sample, n, columns)
        reference = substream_normals_reference(4242, first_sample, n, columns)
        assert z.shape == (n, columns)
        assert np.array_equal(z.view(np.uint64), reference.view(np.uint64))


def test_normals_split_inside_a_chunk_stack_to_the_whole():
    n, k = 3 * CHUNK + 5, CHUNK + 1000
    whole = substream_normals(99, 0, n)
    split = np.vstack([substream_normals(99, 0, k), substream_normals(99, k, n - k)])
    assert whole.tobytes() == split.tobytes()


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
    # only the wide mode is judged: the narrow field is 0 on the surface
    wide_beta = 1.0 / (2.0 * state.wide_mode.coord_mass * state.wide_mode.sigma0**2)
    if 0.5 * wide_beta * config.dt > 0.5:
        with pytest.raises(EnsembleFailureError, match="^wide mode .*; use method = rk45$"):
            propagate_ensemble(state, start, config)
        # the remedy it names records every accepted step instead
        config = dataclasses.replace(config, method="rk45")
    ensemble = propagate_ensemble(state, start, config)
    frames = np.stack(list(ensemble.frames()))
    steps = 101 if config.method == "rk4" else len(ensemble.times)
    assert frames.shape == (steps, 64, 2)
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


@pytest.mark.parametrize("dt, t_final", [(1e-308, 2.0), (1e-200, 2.0), (1e-3, 1e300)])
def test_rk4_step_count_past_what_an_array_can_index_is_refused(dt, t_final):
    with pytest.raises(ValueError, match=r"^rk4 with t_final = .* steps, more than the"):
        IntegratorConfig(dt=dt, t_final=t_final)
    IntegratorConfig(method="rk45", dt=dt, t_final=t_final)  # rk45 does not step by dt


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
    starts = np.array([[0.1], [-0.2]])
    dynamics._check_rk4_step(default_state(), config, starts)
    # rel mode: beta = hbar / (2 (m/2) 0.02^2) = 2500, rate * step peaks at 1.25
    wide_too_narrow = TwoParticleState.from_widths(0.05, 0.02)
    with pytest.raises(EnsembleFailureError, match="^wide mode .* use method = rk45$"):
        dynamics._check_rk4_step(wide_too_narrow, config, starts)
    dynamics._check_rk4_step(wide_too_narrow, dataclasses.replace(config, method="rk45"), starts)
    # starts at the center of the stiff mode at rest are not judged
    dynamics._check_rk4_step(wide_too_narrow, config, np.array([[0.1], [0.0]]))
    # difference-narrow, the narrow mode is row 1: rel beta = hbar / (2 (m/2)
    # 0.005^2) = 4e4, rate * step peaks at 20
    narrow_rel = TwoParticleState.from_widths(0.005, correlation="difference")
    with pytest.raises(EnsembleFailureError, match="^narrow mode sigma0 = 0.005 .* rk45$"):
        dynamics._check_rk4_step(narrow_rel, config, starts)
    # starts with y1 = y2 sit at the resting relative center, which is not judged
    dynamics._check_rk4_step(narrow_rel, config, np.array([[0.1], [0.0]]))
    # cm beta = hbar / (2 (2m) 0.01^2) = 2500, rate * step peaks at 1.25
    wide_cm_too_narrow = TwoParticleState.from_widths(0.05, 0.01, correlation="difference")
    with pytest.raises(EnsembleFailureError, match="^wide mode sigma0 = 0.01 .* rk45$"):
        dynamics._check_rk4_step(wide_cm_too_narrow, config, starts)


def test_rk4_trajectory_refuses_a_stiff_step():
    # narrow mode: beta = hbar / (2 (2m) 0.005^2) = 1e4, rate * step peaks at 5
    state = TwoParticleState.from_widths(sigma_narrow=0.005)
    config = IntegratorConfig(record_stride=1)
    with pytest.raises(EnsembleFailureError, match="^narrow mode .* use method = rk45$"):
        integrate_trajectory(state, (0.01, 0.02), config)
    rk45 = integrate_trajectory(state, (0.01, 0.02), dataclasses.replace(config, method="rk45"))
    assert np.all(np.isfinite(rk45.positions))


def test_ensemble_refuses_a_stiff_rk4_step():
    # unrefused, the default rk4 step left y1+y2 at 0.365 of its law's std by
    # t = 2 (KS 0.2265 against a noise level of 0.0138 at n = 2e4)
    state = TwoParticleState.from_widths(sigma_narrow=0.005)
    config = IntegratorConfig()
    starts = sample_equilibrium(state, 2000, seed=42)
    with pytest.raises(EnsembleFailureError, match="^narrow mode .* use method = rk45$"):
        propagate_ensemble(state, starts, config)
    # surface starts at the center of a narrow mode at rest are judged on the
    # wide mode alone, and stay exactly on the surface
    surface = sample_constraint_surface(state, 2000, seed=42)
    ensemble = propagate_ensemble(state, surface, dataclasses.replace(config, record_stride=50))
    frames = np.stack(list(ensemble.frames()))
    assert frames.shape == (41, 2000, 2)
    assert np.all(frames[:, :, 0] + frames[:, :, 1] == 0.0)
    # off the narrow center the narrow field is not 0, and the step is refused
    shifted = TwoParticleState.from_widths(sigma_narrow=0.005, cm_center=1.0)
    with pytest.raises(EnsembleFailureError, match="^narrow mode .* use method = rk45$"):
        propagate_ensemble(shifted, sample_constraint_surface(shifted, 2000, seed=42), config)


def test_record_stride_times():
    # dt = 0.1 is too long for rk4 at the default narrow width; 0.5 admits it
    state = TwoParticleState.from_widths(sigma_narrow=0.5)
    config = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=2)
    traj = integrate_trajectory(state, (0.1, 0.2), config)
    np.testing.assert_allclose(traj.times, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)
    config = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=3)
    traj = integrate_trajectory(state, (0.1, 0.2), config)
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)


@pytest.mark.parametrize("stride", [10, 11, 2**63, 2**70])
def test_record_stride_at_or_past_the_step_count_records_the_endpoints(stride):
    # 2**63 and above used to overflow np.arange's step
    state = TwoParticleState.from_widths(sigma_narrow=0.5)
    config = IntegratorConfig(dt=0.1, t_final=1.0, record_stride=stride)
    unrecorded = dataclasses.replace(config, record_stride=0)
    traj = integrate_trajectory(state, (0.1, 0.2), config)
    assert traj.times.tolist() == [0.0, 1.0]
    end = integrate_trajectory(state, (0.1, 0.2), unrecorded).positions[-1]
    assert traj.positions[-1].tobytes() == end.tobytes()
    start = sample_equilibrium(state, 16, 5)
    frames = list(propagate_ensemble(state, start, config).frames())
    assert len(frames) == 2
    final = propagate_ensemble(state, start, unrecorded).final_positions
    assert frames[1].tobytes() == final.tobytes()


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


def test_rk45_trajectory_to_late_times_matches_scaling_solution():
    # past t = 1.3e152 the square of the cm mode's beta * t overflows; its
    # stretch rate then read 0, and the run ended at (-5.29e153, 6.52e153)
    state = default_state()
    start = (0.3, -0.2)
    traj = integrate_trajectory(state, start, IntegratorConfig(method="rk45", t_final=1e300))
    big, small = mode_coordinates(*traj.positions[-1])
    big_e, small_e = scaling_solution(state, start, 1e300)
    assert abs(big - big_e) / abs(big_e) < 1e-6
    assert abs(small - small_e) / abs(small_e) < 1e-6


def singular(mode, params, t, a, b):
    """The map derivatives of the field u/(1 - t), linear in u and singular at t = 1."""
    return a / (1.0 - t), b / (1.0 - t)


def test_rk45_step_underflow(monkeypatch):
    # the maps of u/(1 - t) grow as 1/(1 - t); short of t = 1 they follow
    # it, and at t = 1 the step falls below the floor, 1e-12 of the time
    # reached, as the scalar one-trajectory loop's falls below 1e-12
    monkeypatch.setattr(dynamics, "_mode_rhs", singular)
    config = IntegratorConfig(method="rk45", t_final=0.9)
    traj = integrate_trajectory(default_state(), (0.3, -0.2), config)
    expected = np.array([0.3, -0.2]) / (1.0 - 0.9)
    np.testing.assert_allclose(traj.positions[-1], expected, rtol=1e-8)
    config = dataclasses.replace(config, t_final=2.0)
    with pytest.raises(StepUnderflowError, match="^adaptive step fell below 1e-12 at t = 1$"):
        integrate_trajectory(default_state(), (0.3, -0.2), config)
    with pytest.raises(ReferenceUnderflow):
        rk45_reference(lambda t, u: u / (1.0 - t), np.ones((2, 1)), 0.0, 2.0, 1e-9)


def test_rk45_step_floor_follows_the_spreading_time(monkeypatch):
    # a mode of width 4.3e-7 spreads in 1/beta = 7.4e-13, so its first steps
    # are shorter than 1e-12: an absolute floor of 1e-12 refused a start 5
    # widths out, and one 1 width out ended 4e-3 off the exact flow, its
    # error judged against 1e-9 * (1 + |u|). The floor is 1e-12 of the time
    state = TwoParticleState.from_widths(4.3e-7)
    start = (5 * 4.3e-7, 5 * 4.3e-7)
    traj = integrate_trajectory(state, start, IntegratorConfig(method="rk45", t_final=2.0))
    big, small = mode_coordinates(*traj.positions[-1])
    big_e, small_e = scaling_solution(state, start, 2.0)
    assert big == pytest.approx(big_e, rel=1e-8) and small == small_e == 0.0
    # a field singular at t = 1e-15, below the spreading time, stops there
    spreading_time = 1.0 / dynamics._spread_rate(state.narrow_mode, state.params)
    monkeypatch.setattr(
        dynamics, "_mode_rhs", lambda mode, params, t, a, b: (a / (1e-15 - t), b / (1e-15 - t))
    )
    with pytest.raises(StepUnderflowError) as refused:
        integrate_trajectory(state, start, IntegratorConfig(method="rk45", t_final=2.0))
    floor = f"{1e-12 * spreading_time:.3g}"
    assert str(refused.value) == f"adaptive step fell below {floor} at t = 1e-15"


def test_trajectory_rejects_bad_start():
    state = default_state()
    with pytest.raises(ValueError):
        integrate_trajectory(state, (float("inf"), 0.0), IntegratorConfig())


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
    # the maps stay finite, but the cm position 1e307 * a passes the largest
    # double once a = sigma(t)/sigma0 passes 17.98: an overflow of the
    # position, reported at its first recorded time, not a stiff field
    state = default_state()
    config = IntegratorConfig(method="rk45", t_final=2.0, record_stride=1)
    times, a, b, scale = dynamics._rk45_maps(state, config, 0.0)
    assert np.isfinite(a).all() and np.isfinite(b).all()
    crossed = np.argmax(a[:, 0] / scale[0] * 1e307 == np.inf)
    assert times[crossed - 1] < 0.18 < times[crossed]
    message = f"^trajectory position is not finite at t = {times[crossed]:.6g}$"
    with pytest.raises(EnsembleFailureError, match=message):
        integrate_trajectory(state, (1e307, 1e307), config)
    # the scalar loop integrates the position itself, and its state overflows
    u0 = np.vstack(mode_coordinates(1e307, 1e307))
    with pytest.raises(ReferenceOverflow):
        rk45_reference(guidance_field(state_modes(state), 1.0), u0, 0.0, 2.0, 1e-9)


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
    # an ensemble and single trajectories agree to the bit: rk4 recorded
    # frames, times and finals, and rk45 finals, for a drifting, off-center state
    state = TwoParticleState.from_widths(
        0.05, 1.0, cm_center=0.7, rel_center=-2.0, cm_wavenumber=3.0
    )
    starts = sample_equilibrium(state, 40, seed=9)
    rk4 = IntegratorConfig(dt=1e-2, t_final=1.0, record_stride=7)
    rk45 = IntegratorConfig(method="rk45", t_final=1.0)
    ensemble = propagate_ensemble(state, starts, rk4)
    frames = np.stack(list(ensemble.frames()), axis=1)
    adaptive = propagate_ensemble(state, starts, rk45).final_positions
    for i, start in enumerate(starts):
        traj = integrate_trajectory(state, tuple(start), rk4)
        assert traj.times.tobytes() == ensemble.times.tobytes()
        assert traj.positions.tobytes() == frames[i].tobytes()
        assert traj.positions[-1].tobytes() == ensemble.final_positions[i].tobytes()
        final = integrate_trajectory(state, tuple(start), rk45).positions[-1]
        assert final.tobytes() == adaptive[i].tobytes()


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
    # dt = 0.25 is too long for rk4 at the default narrow width; 0.5 admits it
    state = TwoParticleState.from_widths(sigma_narrow=0.5)
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
    a, b, scale = ensemble.maps
    assert a.shape == b.shape == (len(ensemble.times), 2) and scale.shape == (2,)
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
@pytest.mark.parametrize("n", [1, 2, 16383, 16384, 16385, 49157])
def test_frame_abs_sum_maxima_match_frames(n, surface):
    state = default_state()
    if surface == "on":
        starts = sample_constraint_surface(state, n, seed=5)
    else:
        # nonzero Y, with the largest |y1 + y2| planted at the first or last start
        starts = sample_equilibrium(state, n, seed=5)
        starts[0 if surface == "off-first" else -1] *= 50.0
    config = IntegratorConfig(dt=1e-2, t_final=0.05, record_stride=1)
    u0 = dynamics._mode_starts(starts)
    _, _, maps = dynamics._transport(state, u0, config)
    maxima = _frame_abs_sum_maxima(maps, u0)
    # |2Y| of each frame's modes, formed as a new array per stage
    a, b, scale = maps
    expected = np.array([np.max(np.abs(2.0 * (a_j[0] / scale[0] * u0[0] + b_j[0]))) for a_j, b_j in zip(a, b)])
    assert maxima.shape == (6,)
    assert maxima.tobytes() == expected.tobytes()
    if surface == "on":
        assert maxima.tolist() == [0.0] * 6


# signed zeros, subnormals and values whose products with large a overflow
EDGE_Y = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.7e308, -1.7e308])
EDGE_A = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_Y = st.one_of(EDGE_Y, ANY_FINITE)
ANY_A = st.one_of(EDGE_A, ANY_FINITE)


def _maxima_and_frame_scan(a_cm, b_cm, big_y):
    """_frame_abs_sum_maxima and max |2Y| over every start of each frame, for one cm row."""
    k, n = len(a_cm), len(big_y)
    maps = (np.column_stack([a_cm, np.ones(k)]), np.column_stack([b_cm, np.zeros(k)]), np.ones(2))
    u0 = np.vstack([big_y, np.ones(n)])
    with np.errstate(over="ignore", invalid="ignore"):
        maxima = _frame_abs_sum_maxima(maps, u0)
        expected = np.array([np.max(np.abs(2.0 * (a0 * big_y + b0))) for a0, b0 in zip(a_cm, b_cm)])
    return maxima, expected


@settings(max_examples=300, deadline=None)
@given(
    maps=st.lists(st.tuples(ANY_A, ANY_FINITE), min_size=1, max_size=8),
    big_y=st.lists(ANY_Y, min_size=1, max_size=40),
)
def test_frame_abs_sum_maxima_equal_full_frame_scan(maps, big_y):
    # each map is monotone in Y, so the extreme starts bound every frame bit for bit
    a_cm, b_cm = map(np.array, zip(*maps))
    maxima, expected = _maxima_and_frame_scan(a_cm, b_cm, np.array(big_y))
    assert maxima.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    a_cm=st.lists(ANY_A, min_size=1, max_size=8),
    big_y=st.lists(ANY_Y, min_size=1, max_size=40),
    where=st.integers(0, 40),
    start=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_frame_abs_sum_maxima_non_finite_start(a_cm, big_y, where, start):
    big_y.insert(where, start)
    a_cm = np.array(a_cm + [0.0])
    maxima, expected = _maxima_and_frame_scan(a_cm, np.ones(len(a_cm)), np.array(big_y))
    assert np.array_equal(maxima, expected, equal_nan=True)
    # a NaN start poisons every frame; an infinite one the frames whose a is 0
    poisoned = np.ones(len(a_cm), bool) if math.isnan(start) else a_cm == 0.0
    assert np.isnan(maxima).tolist() == poisoned.tolist()


def test_ensemble_input_validation():
    state = default_state()
    config = IntegratorConfig()
    with pytest.raises(ValueError):
        propagate_ensemble(state, np.zeros((4, 3)), config)
    with pytest.raises(ValueError):
        propagate_ensemble(state, np.array([[0.0, np.nan]]), config)
    with pytest.raises(ValueError):
        propagate_ensemble(state, np.zeros((4, 2)), config, parallel_width=0)


def test_rk45_ensemble_records_its_maps():
    # rk45 maps are recorded as rk4's are: one frame per accepted step, the
    # last one the final positions, each equal to the trajectory of its start
    state = TwoParticleState.from_widths(0.005, 1.0, cm_wavenumber=3.0)
    starts = sample_equilibrium(state, 30, seed=6)
    config = IntegratorConfig(method="rk45", t_final=1.0, record_stride=1)
    ensemble = propagate_ensemble(state, starts, config)
    frames = np.stack(list(ensemble.frames()), axis=1)
    assert frames.shape == (30, len(ensemble.times), 2) and len(ensemble.times) > 20
    assert frames[:, -1].tobytes() == ensemble.final_positions.tobytes()
    for i, start in enumerate(starts):
        traj = integrate_trajectory(state, tuple(start), config)
        assert traj.times.tobytes() == ensemble.times.tobytes()
        assert traj.positions.tobytes() == frames[i].tobytes()


def test_rk45_zero_error_grows_steps_like_reference(monkeypatch):
    # a still field has zero error, so every step is accepted and grows 5x
    def still(t, u):
        return np.zeros_like(u)

    taken = []
    rk45_reference(still, np.ones((2, 1)), 0.0, 2.0, 1e-9, lambda t, u: taken.append(t))
    monkeypatch.setattr(dynamics, "_mode_rhs", lambda mode, params, t, a, b: (0.0, 0.0))
    config = IntegratorConfig(method="rk45", t_final=2.0, record_stride=1)
    times, a, b, scale = dynamics._rk45_maps(default_state(), config, 0.0)
    assert times.tolist() == [0.0, *taken]
    assert a.tolist() == [scale.tolist()] * len(times) and b.tolist() == [[0.0, 0.0]] * len(times)
    assert np.allclose(np.diff(times), [0.02, 0.1, 0.5, 1.38])


def test_ensemble_failure_threshold(monkeypatch):
    # every trajectory meets the singularity of u/(1 - t): the maps they
    # share stop at the step floor, and the whole ensemble is refused
    state = default_state()
    starts = sample_equilibrium(state, 20, seed=1)
    monkeypatch.setattr(dynamics, "_mode_rhs", singular)
    with pytest.raises(StepUnderflowError, match="^adaptive step fell below 1e-12 at t = 1$"):
        propagate_ensemble(
            state, starts, IntegratorConfig(method="rk45", t_final=2.0)
        )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "cells, failed",
    [
        ([(3, 0)], 1),
        ([(3, 1)], 1),
        ([(3, 0), (3, 1)], 1),
        ([(0, 0), (7, 1), (12, 0), (12, 1), (19, 1)], 4),
    ],
)
def test_ensemble_failure_counts_failed_rows(monkeypatch, value, cells, failed):
    # one whole-array finiteness check, then trajectories are counted, not cells
    state = default_state()
    starts = sample_equilibrium(state, 20, seed=1)
    map_modes = dynamics._map_modes

    def planted(a, b, scale, u0):
        final = map_modes(a, b, scale, u0)
        for trajectory, mode in cells:
            final[mode, trajectory] = value
        return final

    monkeypatch.setattr(dynamics, "_map_modes", planted)
    with pytest.raises(
        EnsembleFailureError, match=f"^{failed} of 20 trajectories failed to integrate$"
    ):
        propagate_ensemble(state, starts, IntegratorConfig(t_final=0.1))


def test_ensemble_refuses_positions_that_overflow_from_finite_modes():
    # Y and y stay finite, but the narrow cm mode grows 1.5x by t = 0.011, so
    # y1 = Y + y/2 passes the largest double at the boundary
    start = np.array([[0.95, 0.05]]) * np.finfo(float).max
    config = IntegratorConfig(dt=1e-3, t_final=0.011)
    u0 = dynamics._mode_starts(start)
    assert np.isfinite(dynamics._transport(default_state(), u0, config)[0]).all()
    with np.errstate(over="ignore"):
        with pytest.raises(EnsembleFailureError, match="^1 of 1 trajectories failed to integrate$"):
            propagate_ensemble(default_state(), start, config)


def test_ensemble_failure_counts_mixed_non_finite_rows(monkeypatch):
    state = default_state()
    starts = sample_equilibrium(state, 20, seed=1)
    map_modes = dynamics._map_modes

    def planted(a, b, scale, u0):
        final = map_modes(a, b, scale, u0)
        final[0, 2] = np.nan  # Y: both particle columns
        final[1, 5] = np.inf  # y: y1 = +inf, y2 = -inf
        final[0, 11] = -np.inf  # Y: y1 = y2 = -inf
        return final

    monkeypatch.setattr(dynamics, "_map_modes", planted)
    with pytest.raises(EnsembleFailureError, match="^3 of 20 trajectories failed to integrate$"):
        propagate_ensemble(state, starts, IntegratorConfig(method="rk45", t_final=0.1))


def _positions_with_signed_zeros(n, seed):
    positions = 3.0 * np.random.default_rng(seed).standard_normal((n, 2))
    positions[: min(n, 4)] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [1e300, -1e300]][: min(n, 4)]
    return positions


@pytest.mark.parametrize("n", [2, 3, 100_000])
def test_mode_maps_match_stacked_reference_bitwise(n):
    positions = _positions_with_signed_zeros(n, n)
    before = positions.tobytes()
    u0 = dynamics._mode_starts(positions)
    reference = mode_starts_reference(positions)
    assert u0.shape == (2, n) and u0.tobytes() == reference.tobytes()
    a = np.array([1.7, 0.3])
    b = np.array([-0.0, 2.5])
    # a map holds a times a power of two at most 1, which it divides out exactly
    scale = np.array([2.0**-4, 1.0])
    final = dynamics._particle_positions(*dynamics._map_modes(a * scale, b, scale, u0))
    assert final.shape == (n, 2)
    assert final.tobytes() == mode_positions_reference(a, b, reference).tobytes()
    assert positions.tobytes() == before and u0.tobytes() == reference.tobytes()


def test_mode_positions_broadcast_over_times_matches_reference_bitwise():
    # integrate_trajectory maps one start through every recorded time at once
    state = default_state()
    config = IntegratorConfig(t_final=0.5, record_stride=7)
    times, a, b, scale = dynamics._rk4_maps(state, config, 0.0)
    for start in ((0.3, -1.1), (0.0, -0.0), (1e300, -1e300)):
        u0 = mode_coordinates(*start)
        modes = dynamics._map_modes(a.T, b.T, scale, np.vstack(u0))
        positions = dynamics._particle_positions(*modes)
        assert positions.shape == (len(times), 2)
        reference = mode_positions_reference((a / scale).T, b.T, u0)
        assert positions.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [2, 3, 100_000])
@pytest.mark.parametrize("correlation", ["sum", "difference"])
def test_sample_equilibrium_matches_stacked_reference_bitwise(n, correlation):
    state = TwoParticleState.from_widths(
        0.05, 1.0, correlation=correlation, cm_center=0.7, rel_center=-2.0
    )
    for first_sample in (0, 5):
        ours = sample_equilibrium(state, n, 42, first_sample)
        reference = sample_equilibrium_reference(state, n, 42, first_sample)
        assert ours.shape == (n, 2) and ours.tobytes() == reference.tobytes()


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


def exact_flow_error(state, times, maps, t0, reach):
    """Worst (|a/a* - 1| * reach + |b - b*|) / sigma(t) over the recorded maps and both modes.

    The maps are (a, b, scale) as the integrators return them, a held times
    scale. a* = sigma(t)/sigma(t0) and b* = c(t) - a* c(t0) are the exact
    flow's map, a / a* is taken as a * (sigma(t0) / scale) / sigma(t), so
    that nothing overflows where the width does not, and reach * sigma(t0)
    is the largest offset of a start from c(t0).
    """
    worst = 0.0
    a, b, scale = maps
    for row, (mode, start) in enumerate(zip((state.cm_mode, state.rel_mode), state.evolved(t0))):
        for t, a_t, b_t in zip(times.tolist(), a[:, row].tolist(), b[:, row].tolist()):
            end = evolve_mode(mode, state.params, t)
            ratio = a_t * (start.sigma / scale[row]) / end.sigma
            b_exact = end.center - end.sigma * (start.center / start.sigma)
            offset = reach * start.sigma
            error = abs(ratio - 1.0) * offset + abs(b_t - b_exact)
            worst = max(worst, error / end.sigma)
    return worst


@pytest.mark.parametrize("sigma0", [0.4, 0.05, 1e-3, 1e-6, 5e-7, 4.3e-7, 1e-9, 1e-15, 1e-30])
@pytest.mark.parametrize("wavenumber", [0.0, 3.0])
def test_rk45_maps_follow_the_exact_flow(sigma0, wavenumber):
    # every recorded map within 10 * tolerance evolved widths of the exact
    # flow, for starts out to the Philox bound, from the widest mode to 1e-30;
    # about 0.4-0.7 * tolerance was measured. A lane error against
    # tolerance * (1 + |u|) moved sigma0 = 5e-7 to KS 0.024 at n = 2e4
    state = TwoParticleState.from_widths(
        sigma0, 1.0, cm_wavenumber=wavenumber, rel_wavenumber=-wavenumber
    )
    config = IntegratorConfig(method="rk45", t_final=2.0, record_stride=1)
    times, *maps = dynamics._rk45_maps(state, config, 0.0)
    assert exact_flow_error(state, times, maps, 0.0, 8.3) <= 10 * config.tolerance
    # and from a start time past the narrow mode's spreading time
    times, *maps = dynamics._rk45_maps(state, config, 0.5)
    assert exact_flow_error(state, times, maps, 0.5, 8.3) <= 10 * config.tolerance


@pytest.mark.parametrize(
    "sigma_narrow, sigma_wide, params, t_final",
    [
        (0.05, 1.0, PhysicalParams(hbar=1e-13), 2.0),
        (0.05, 1.0, PhysicalParams(mass=1e13), 2.0),
        (0.05, 1.0, PhysicalParams(hbar=1e-11), 0.05),
        (1e6, 1e6, None, 2.0),
        (1e-150, 1.0, None, 1e10),
        (1e-150, 1e-150, None, 1e10),
    ],
)
def test_rk45_maps_follow_the_exact_flow_at_extreme_scales(
    sigma_narrow, sigma_wide, params, t_final
):
    # the step floor is 1e-12 of the stiffest mode's spreading time, capped
    # at t_final: uncapped, the nearly classical hbar = 1e-13 (spreading
    # times 1e11 and 4e13) set a floor of 0.1 above the first trial step of
    # 0.02 and was refused at t = 0. At sigma0 = 1e-150 and t = 1e10 the map
    # sigma(t)/sigma0 = 2.5e309 is past double, and is held times 2^-498
    state = TwoParticleState.from_widths(
        sigma_narrow, sigma_wide, params=params, cm_wavenumber=3.0
    )
    config = IntegratorConfig(method="rk45", t_final=t_final, record_stride=1)
    times, *maps = dynamics._rk45_maps(state, config, 0.0)
    assert times[-1] == t_final and np.isfinite(maps[0]).all() and np.isfinite(maps[1]).all()
    assert exact_flow_error(state, times, maps, 0.0, 8.3) <= 10 * config.tolerance


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
    # the maps and the scalar one-trajectory loop take their own steps, so
    # they agree within the tolerance, not to the bit: within ten tolerances
    # of the evolved width per accepted step of the maps, against the loop
    # run at a thousandth of the tolerance. Over 36000 such random states at
    # most 3.5 per step was measured, with narrow modes from t0 = 0 at
    # tolerances near 1e-5 (1.5 at 1e-6 and below); the loop itself, run at
    # the same tolerance, ended up to 320 tolerances of the width off
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
    every = IntegratorConfig(method="rk45", tolerance=tolerance, t_final=1.0, record_stride=1)
    starts = sample_equilibrium(state, 3, seed=seed)
    u0 = np.vstack(mode_coordinates(starts[:, 0], starts[:, 1]))
    field = guidance_field(state_modes(state), state.params.hbar)
    expected = rk45_reference(field, u0, t0, t0 + 1.0, 1e-3 * tolerance)
    times, a, b, scale = dynamics._rk45_maps(state, every, t0)
    final = dynamics._map_modes(a[-1], b[-1], scale, u0)
    widths = np.array([[mode.sigma] for mode in state.evolved(t0 + 1.0)])
    steps = len(times) - 1
    assert np.all(np.abs(final - expected) <= 10 * steps * tolerance * widths)

    # a stride records the maps of every stride-th accepted step of the same
    # run, and a trajectory's positions are its start through them
    config = dataclasses.replace(every, record_stride=stride)
    traj = integrate_trajectory(state, tuple(starts[0]), config, t0=t0)
    kept = [0, *range(stride, steps, stride), steps] if stride else [0, steps]
    assert traj.times.tobytes() == times[kept].tobytes()
    modes = dynamics._map_modes(a[kept].T, b[kept].T, scale, u0[:, :1])
    positions = dynamics._particle_positions(*modes)
    assert traj.positions.tobytes() == positions.tobytes()


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
    starts = sample_equilibrium(state, 5, seed=seed)
    u0 = np.vstack(mode_coordinates(starts[:, 0], starts[:, 1]))
    try:
        dynamics._check_rk4_step(state, config, u0)
    except EnsembleFailureError:
        assume(False)
    ensemble = propagate_ensemble(state, starts, config, t0=t0)
    steps, dt = dynamics._step_grid(config)
    frames = rk4_reference(state_modes(state), state.params.hbar, u0, dt, steps, stride, t0)
    assert len(frames) == len(ensemble.times)
    for positions, reference in zip(ensemble.frames(), frames, strict=True):
        composed = np.vstack(mode_coordinates(positions[:, 0], positions[:, 1]))
        assert np.all(np.abs(composed - reference) <= 1e-12 * (1.0 + np.abs(reference)))


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
