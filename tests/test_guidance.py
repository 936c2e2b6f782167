"""Velocity field: closed form vs finite differences, continuity residual."""

import math
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bohm_equilibrium.guidance as guidance
import bohm_equilibrium.model as model
from bohm_equilibrium import (
    GaussianMode,
    PhysicalParams,
    ResidualGrid,
    TwoParticleState,
    continuity_convergence,
    continuity_residual,
    grid_for_state,
    particle_coordinates,
    substream_normals,
    velocity,
)
from bohm_equilibrium.model import evolve_mode, mode_coordinates, mode_density, observable_normal

from _oracles import (
    continuity_residual_reference,
    diagonal_mode_coordinates,
    leaf_l2_norm,
    state_modes,
    velocity_fd,
)

PARAMS = PhysicalParams()


def default_state():
    return TwoParticleState.from_widths(0.05, 1.0)


def drifting_state():
    """Difference-narrow, off-center and moving: exercises the drift and phase terms."""
    return TwoParticleState.from_widths(
        0.3,
        1.1,
        correlation="difference",
        cm_center=0.2,
        rel_center=-0.4,
        cm_wavenumber=1.5,
        rel_wavenumber=-0.7,
    )


def fd_velocity(state, y1, y2, t, h):
    """The oracle's finite-difference velocity for a package state."""
    params = state.params
    return velocity_fd(state_modes(state), params.hbar, params.mass, y1, y2, t, h)


def equilibrium_points(state, t, n, seed):
    """Points distributed per |psi(., ., t)|^2, for in-support evaluation."""
    cm, rel = state.evolved(t)
    z = substream_normals(seed, 0, n)
    return particle_coordinates(
        cm.center + cm.sigma * z[:, 0], rel.center + rel.sigma * z[:, 1]
    )


def test_velocity_zero_at_t0_without_drift():
    state = default_state()
    v = velocity(state, 0.3, -1.2, 0.0)
    assert v.v1 == 0.0 and v.v2 == 0.0
    fd1, fd2 = fd_velocity(state, 0.3, -1.2, 0.0, h=1e-4)
    assert abs(fd1) < 1e-12 and abs(fd2) < 1e-12


def test_single_mode_velocity_spot_value():
    # beta = 1/2, t = 2: stretch rate = beta^2 t/(1+(beta t)^2) = 1/4
    v = evolve_mode(GaussianMode(sigma0=1.0, coord_mass=1.0), PARAMS, 2.0).velocity(1.0)
    assert v == pytest.approx(0.25, rel=1e-14)


def test_velocity_matches_finite_difference():
    t = 2.0
    for state in (default_state(), drifting_state()):
        y1, y2 = equilibrium_points(state, t, 1000, seed=777)
        v = velocity(state, y1, y2, t)
        fd1, fd2 = fd_velocity(state, y1, y2, t, h=1e-4)
        speed = np.hypot(v.v1, v.v2)
        rel = np.hypot(fd1 - v.v1, fd2 - v.v2) / speed
        assert rel.max() < 1e-6


def test_velocity_fd_second_order():
    t = 2.0
    for state in (default_state(), drifting_state()):
        y1, y2 = equilibrium_points(state, t, 200, seed=777)
        v = velocity(state, y1, y2, t)

        def max_err(h):
            fd1, fd2 = fd_velocity(state, y1, y2, t, h=h)
            return np.hypot(fd1 - v.v1, fd2 - v.v2).max()

        ratio = max_err(1e-4) / max_err(5e-5)
        assert 3.5 < ratio < 4.5


def test_velocity_fd_within_three_sigma_points():
    state = default_state()
    for t in (0.5, 2.0):
        cm, rel = state.evolved(t)
        grid = np.linspace(-3, 3, 7)
        y1, y2 = particle_coordinates(
            cm.center + cm.sigma * grid[:, None],
            rel.center + rel.sigma * grid[None, :],
        )
        v = velocity(state, y1, y2, t)
        fd1, fd2 = fd_velocity(state, y1, y2, t, h=1e-4)
        scale = np.hypot(v.v1, v.v2) + 1e-3
        assert (np.hypot(fd1 - v.v1, fd2 - v.v2) / scale).max() < 1e-6


def test_velocity_decoupling():
    state = default_state()
    t = 1.3
    # same Y, different y
    va = velocity(state, 1.0, 0.2, t)
    vb = velocity(state, 1.5, -0.3, t)
    assert va.v1 + va.v2 == pytest.approx(vb.v1 + vb.v2, abs=1e-12)
    # same y, different Y
    vc = velocity(state, 1.0, 0.2, t)
    vd = velocity(state, 2.0, 1.2, t)
    assert vc.v1 - vc.v2 == pytest.approx(vd.v1 - vd.v2, abs=1e-12)


def test_velocity_exchange_antisymmetry():
    state = default_state()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(50, 2))
    for t in (0.4, 2.0):
        v = velocity(state, pts[:, 0], pts[:, 1], t)
        w = velocity(state, -pts[:, 1], -pts[:, 0], t)
        np.testing.assert_allclose(v.v1, -np.asarray(w.v2), atol=1e-14)
        np.testing.assert_allclose(v.v2, -np.asarray(w.v1), atol=1e-14)


def test_velocity_affine_collinearity():
    state = default_state()
    t = 1.0
    a = np.array([0.1, -0.4])
    b = np.array([1.1, 0.6])
    mid = 0.5 * (a + b)
    va = velocity(state, a[0], a[1], t)
    vb = velocity(state, b[0], b[1], t)
    vm = velocity(state, mid[0], mid[1], t)
    assert vm.v1 == pytest.approx(0.5 * (va.v1 + vb.v1), abs=1e-12)
    assert vm.v2 == pytest.approx(0.5 * (va.v2 + vb.v2), abs=1e-12)


def test_velocity_rejects_non_finite():
    state = default_state()
    with pytest.raises(ValueError):
        velocity(state, float("nan"), 0.0, 1.0)


@pytest.mark.parametrize("sigma_narrow", [0.05, 1.0])
def test_continuity_residual_second_order(sigma_narrow):
    state = TwoParticleState.from_widths(sigma_narrow, 1.0)
    grid = grid_for_state(state, 2.0)
    coarse = continuity_residual(state, grid, 2.0)
    fine = continuity_residual(state, grid.refined(), 2.0)
    assert not coarse.too_coarse
    assert 3.5 < coarse.max_norm / fine.max_norm < 4.5
    assert 3.5 < coarse.l2_norm / fine.l2_norm < 4.5


def test_continuity_residual_magnitude():
    state = TwoParticleState.from_widths(1.0, 1.0)
    t = 2.0
    cm, rel = state.evolved(t)
    feature = min(2.0 * cm.sigma, rel.sigma)
    grid = grid_for_state(state, t, h=feature / 50.0)
    res = continuity_residual(state, grid, t)
    rho_max = 1.0 / (cm.sigma * rel.sigma * 2.0 * math.pi)
    v1, v2 = velocity(
        state, grid.y1_axis[:, None], grid.y2_axis[None, :], t
    )
    v_scale = max(float(np.max(np.abs(v1))), float(np.max(np.abs(v2))))
    assert res.max_norm <= 1e-4 * rho_max * v_scale


def test_continuity_residual_zero_at_t0():
    # rho is even in t and v vanishes at t=0 for centered k=0 states
    state = default_state()
    res = continuity_residual(state, grid_for_state(state, 0.0), 0.0)
    assert res.max_norm == 0.0


MODE_PARAM = st.floats(-3.0, 3.0)


def leaf_rows(grid):
    """Whole grid rows per leaf of continuity_residual at the current _BLOCK_POINTS."""
    return max(1, min(grid.n1, guidance._BLOCK_POINTS // grid.n2))


def assert_matches_whole_grid(res, state, grid, t, rows):
    """Both norms against continuity_residual_reference.

    max_norm and the leaf form of l2_norm must match bit for bit. np.sum
    adds runs of at most 128 values in a loop (at most 127 additions) and
    joins the runs up a binary tree of at most ceil(log2 N) levels, so each
    of N squares passes through at most 128 + ceil(log2 N) roundings of
    relative size eps; with no negative term no partial sum exceeds the
    total, so the computed sum is within (128 + ceil(log2 N)) * eps of the
    exact one, to first order. A leaf's np.sum holds at most N values and
    fsum rounds once, so the package's and the whole grid's sums of squares
    differ by at most twice that; the square root halves it, and * h * h
    and sqrt add 3 eps on either side.
    """
    residual, max_norm, l2_norm = continuity_residual_reference(state, grid, t)
    assert res.max_norm == max_norm
    assert res.l2_norm == leaf_l2_norm(residual, grid.h, rows)
    bound = (128 + math.ceil(math.log2(residual.size)) + 6) * np.finfo(float).eps
    assert abs(res.l2_norm - l2_norm) <= bound * l2_norm


def per_point_mode_coordinates(grid, rows=slice(None)):
    """(Y, y) at the ghost-extended grid points of the given rows, as the
    mode_coordinates of each point's (y1, y2) axis values."""
    y1 = (grid.y1_min - grid.h) + grid.h * np.arange(grid.n1 + 2)[rows]
    y2 = (grid.y2_min - grid.h) + grid.h * np.arange(grid.n2 + 2)
    return mode_coordinates(y1[:, None], y2[None, :])


def per_point_norms(state, grid, t, rows=64):
    """(max_norm, l2_norm) of the residual at per_point_mode_coordinates, by blocks of rows."""
    peak, squares = 0.0, []
    for i0 in range(0, grid.n1, rows):
        block = slice(i0, min(grid.n1, i0 + rows) + 2)
        residual, block_peak, _ = continuity_residual_reference(
            state, grid, t, lambda g: per_point_mode_coordinates(g, block)
        )
        peak = max(peak, block_peak)
        squares.append(float(np.sum(residual * residual)))
    return peak, math.sqrt(math.fsum(squares)) * grid.h


# the CLI's defaults, its fine run and a moving difference-narrow state, at t_final = 2
ROUNDING_CASES = {
    "defaults": (default_state(), None),
    "grid_h=0.07": (default_state(), 0.07),
    "moving difference-narrow": (drifting_state(), None),
}


@pytest.mark.parametrize("state, h", list(ROUNDING_CASES.values()), ids=list(ROUNDING_CASES))
def test_diagonal_mode_factors_move_the_norms_by_rounding_only(state, h):
    # the diagonal coordinates round differently from the per-point ones; the
    # largest relative move of either norm on these six grids was 4.4e-10,
    # the fine max_norm at grid_h = 0.07
    t = 2.0
    for grid, res in continuity_convergence(state, t, h=h).values():
        max_norm, l2_norm = per_point_norms(state.at_origin(), grid, t)
        assert abs(res.max_norm - max_norm) <= 5e-9 * max_norm
        assert abs(res.l2_norm - l2_norm) <= 5e-9 * l2_norm


@pytest.mark.parametrize("state, h", list(ROUNDING_CASES.values()), ids=list(ROUNDING_CASES))
def test_diagonal_mode_coordinates_stay_within_ulps_of_the_grid_points(state, h):
    # measured: at most 2 ulps of the farthest axis end in Y and 4 in y
    coarse = grid_for_state(state.at_origin(), 2.0, h=h)
    for grid in (coarse, coarse.refined()):
        ends = [grid.y1_min - grid.h, grid.y2_min - grid.h]
        ends += [end + grid.h * (n + 1) for end, n in zip(ends, (grid.n1, grid.n2))]
        ulp = np.spacing(max(map(abs, ends)))
        for i0 in range(0, grid.n1 + 2, 256):
            rows = slice(i0, i0 + 256)
            diagonal_rows = diagonal_mode_coordinates(grid, rows)
            for diagonal, per_point in zip(diagonal_rows, per_point_mode_coordinates(grid, rows)):
                assert np.max(np.abs(diagonal - per_point)) <= 4 * ulp


@pytest.mark.parametrize("block_rows", [None, 3])
@settings(max_examples=50, deadline=None)
@given(
    widths=st.tuples(st.floats(0.02, 2.0), st.floats(0.02, 2.0)),
    correlation=st.sampled_from(["sum", "difference"]),
    centers=st.tuples(MODE_PARAM, MODE_PARAM),
    wavenumbers=st.tuples(MODE_PARAM, MODE_PARAM),
    t=st.floats(0.0, 3.0),
    half_points=st.integers(181, 249),
)
def test_blocked_residual_matches_whole_grid(
    block_rows, widths, correlation, centers, wavenumbers, t, half_points
):
    state = TwoParticleState.from_widths(
        *widths,
        correlation=correlation,
        cm_center=centers[0],
        rel_center=centers[1],
        cm_wavenumber=wavenumbers[0],
        rel_wavenumber=wavenumbers[1],
    )
    # n1 = 2 * half_points + 1 rows: 363..499, over two default blocks
    std = observable_normal(state, t, "y1")[1]
    grid = grid_for_state(state, t, h=5.0 * std / (half_points - 0.5))
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(guidance, "_BLOCK_POINTS", block_rows * grid.n2)
        rows = leaf_rows(grid)
        assume(grid.n1 % rows != 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # too_coarse
            res = continuity_residual(state, grid, t)
    assert grid.n1 > rows
    assert_matches_whole_grid(res, state, grid, t, rows)


def moving_state():
    return TwoParticleState.from_widths(
        0.3, 1.1, cm_center=0.2, rel_center=-0.4, cm_wavenumber=1.5, rel_wavenumber=-0.7
    )


# (rows per leaf, leaves) at each (block_points, half_points): one row per
# leaf where a row of 401 points exceeds the limit; 401 rows in two default
# leaves of 163 and a short last one of 75; 101^2 and 3^2 points in a
# single default leaf
LEAF_CASES = {(1, 200): (1, 401), (None, 200): (163, 3), (None, 50): (101, 1), (None, 1): (3, 1)}


@pytest.mark.parametrize("block_points, half_points", list(LEAF_CASES))
def test_leaf_sums_match_whole_grid(block_points, half_points):
    state, t = moving_state(), 1.3
    std = observable_normal(state, t, "y1")[1]
    grid = grid_for_state(state, t, h=5.0 * std / (half_points - 0.5))
    assert grid.n1 == grid.n2 == 2 * half_points + 1
    with pytest.MonkeyPatch.context() as mp:
        if block_points is not None:
            mp.setattr(guidance, "_BLOCK_POINTS", block_points)
        rows = leaf_rows(grid)
        assert (rows, math.ceil(grid.n1 / rows)) == LEAF_CASES[block_points, half_points]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # too_coarse at 3^2
            res = continuity_residual(state, grid, t)
    assert_matches_whole_grid(res, state, grid, t, rows)


def moving_grid(half_points):
    state, t = moving_state(), 1.3
    std = observable_normal(state, t, "y1")[1]
    return state, grid_for_state(state, t, h=5.0 * std / (half_points - 0.5)), t


@pytest.fixture
def fast_thread_switching():
    """Switch threads every microsecond, so that a lost update between workers shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.usefixtures("fast_thread_switching")
@pytest.mark.parametrize(
    "cpus, max_workers",
    [(1, None), (2, None), (3, None), ("more than the leaves", None), ("more than the leaves", 64)],
)
@pytest.mark.parametrize(
    "block_points, half_points, leaves", [(None, 200, 3), (377, 31, 13), (None, 50, 1)]
)
def test_residual_bits_do_not_depend_on_worker_count(
    cpus, max_workers, block_points, half_points, leaves
):
    # 401^2 points make 3 default leaves, the last one short, and 63^2
    # points 13 leaves of five rows, at most 377 points; 101^2 points are
    # one leaf, run on the calling thread alone. The workers are the CPUs,
    # at most _MAX_WORKERS (4, or 64 here) and at most the leaves, a power
    # of two or not
    state, grid, t = moving_grid(half_points)
    threads = set()

    def density(evolved, u, out=None):
        threads.add(threading.current_thread())
        return mode_density(evolved, u, out=out)

    with pytest.MonkeyPatch.context() as mp:
        if block_points is not None:
            mp.setattr(guidance, "_BLOCK_POINTS", block_points)
        rows = leaf_rows(grid)
        assert math.ceil(grid.n1 / rows) == leaves
        if cpus == "more than the leaves":
            cpus = leaves + 1
        workers = min(cpus, max_workers or 4, leaves)
        if max_workers is not None:
            mp.setattr(guidance, "_MAX_WORKERS", max_workers)
        mp.setattr(guidance, "_usable_cpus", lambda: cpus)
        mp.setattr(guidance, "mode_density", density)
        res = continuity_residual(state, grid, t)
    assert threading.main_thread() in threads
    assert len(threads) == workers
    assert_matches_whole_grid(res, state, grid, t, rows)


@pytest.mark.parametrize("failing", ["first", "other"])
@pytest.mark.parametrize("error", [MemoryError, RuntimeWarning])
def test_worker_failure_reaches_caller_after_every_join(error, failing):
    # two workers on 3 leaves; the first worker runs on the calling thread
    state, grid, t = moving_grid(200)

    def density(evolved, u, out=None):
        if (threading.current_thread() is threading.main_thread()) == (failing == "first"):
            if error is MemoryError:
                raise MemoryError("stub")
            np.divide(1.0, np.zeros(1))  # an error under pyproject's error::RuntimeWarning
        return mode_density(evolved, u, out=out)

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_usable_cpus", lambda: 2)
        mp.setattr(guidance, "mode_density", density)
        with pytest.raises(error, match="stub" if error is MemoryError else "divide by zero"):
            continuity_residual(state, grid, t)
        assert threading.active_count() == before


def test_worker_failure_stops_the_other_workers():
    # two workers on 13 five-row leaves; the calling thread fails in its
    # first leaf, while the other worker is still in its first; that worker
    # evaluates one leaf, 6 mode_density calls, instead of all 6 of its own
    state, grid, t = moving_grid(31)
    raised = threading.Event()
    other_calls = []

    def density(evolved, u, out=None):
        if threading.current_thread() is threading.main_thread():
            raised.set()
            raise MemoryError("stub")
        if not other_calls:
            raised.wait(timeout=10.0)
            time.sleep(0.05)  # time for the failure to reach the other worker
        other_calls.append(u.size)
        return mode_density(evolved, u, out=out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_BLOCK_POINTS", 377)
        mp.setattr(guidance, "_usable_cpus", lambda: 2)
        mp.setattr(guidance, "mode_density", density)
        with pytest.raises(MemoryError, match="stub"):
            continuity_residual(state, grid, t)
    assert len(other_calls) == 6


def test_worker_thread_that_cannot_start_is_reraised_after_every_join():
    # four workers on 8 leaves; the second thread fails to start while the
    # first is in its first leaf: that worker is joined before the error
    # reaches the caller, and skips its second leaf, 5
    start = threading.Thread.start
    started, evaluated = [], []

    def flaky_start(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    def new_leaf():
        def leaf(k):
            evaluated.append(k)
            time.sleep(0.2)
            return k

        return leaf

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_usable_cpus", lambda: 4)
        mp.setattr(threading.Thread, "start", flaky_start)
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            guidance._map_leaves(8, new_leaf)
        assert threading.active_count() == before
    assert not started[0].is_alive() and 5 not in evaluated


def test_one_worker_traces_six_leaf_buffers():
    # the CLI's fine grid at grid_h = 0.07 (2877^2 points, 22-row leaves); a
    # leaf holds four ghost-extended and two inner stage buffers, where five
    # and three traced 8.05 ghost-extended buffers
    state, t = default_state(), 2.0
    grid = grid_for_state(state, t, h=0.07).refined()
    buffer_bytes = (leaf_rows(grid) + 2) * (grid.n2 + 2) * 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_usable_cpus", lambda: 1)
        continuity_residual(state, grid_for_state(state, t), t)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            continuity_residual(state, grid, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6.5 * buffer_bytes


def test_one_worker_traces_five_leaf_buffers():
    # as above; a leaf holds three ghost-extended and two inner stage
    # buffers, and four 1-D mode factors of rows + n2 + 3 diagonals each
    state, t = default_state(), 2.0
    grid = grid_for_state(state, t, h=0.07).refined()
    buffer_bytes = (leaf_rows(grid) + 2) * (grid.n2 + 2) * 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_usable_cpus", lambda: 1)
        continuity_residual(state, grid_for_state(state, t), t)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            continuity_residual(state, grid, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5.5 * buffer_bytes


def test_grid_past_physical_memory_is_refused_before_allocating():
    # the default grid (363^2 points, three leaves of up to 180 rows) needs
    # about 6.4 MB of stage buffers on two workers. With 1 MB of memory it is
    # refused before any buffer or axis is built; with all of it the run
    # allocates what the refusal counted, plus numpy's ufunc buffers of about
    # 0.1-0.2 MB per worker
    state, t = default_state(), 2.0
    grid = grid_for_state(state, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_usable_cpus", lambda: 2)
        continuity_residual(state, grid, t)  # lazy set-up outside the trace
        mp.setattr(guidance, "_physical_memory", lambda: 1e6)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError) as info:
                continuity_residual(state, grid, t)
            refused_peak = tracemalloc.get_traced_memory()[1]
            mp.setattr(guidance, "_physical_memory", lambda: math.inf)
            tracemalloc.reset_peak()
            continuity_residual(state, grid, t)
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert refused_peak < 1 << 20
    message = str(info.value)
    assert re.fullmatch(
        r"the continuity residual on a grid of 363 x 363 points needs (\S+) GB of stage "
        r"buffers on 2 worker thread\(s\), more than the 0.001 GB of physical memory",
        message,
    )
    need = float(re.search(r"needs (\S+) GB", message)[1]) * 1e9
    assert run_peak < need + (1 << 20)


def test_overflowing_sum_of_squares_keeps_its_l2_norm():
    # densities scaled so that each of two leaves sums its squares to a
    # finite 0.6e308..1.2e308 and their total exceeds the largest float;
    # l2_norm must be finite, with the bits of the whole-grid residual scaled
    # by the power of two that brings its max into [0.5, 1), summed over the
    # same leaves and scaled back
    state, grid, t = moving_grid(31)
    rows = 32
    residual, _, _ = continuity_residual_reference(state, grid, t)
    sums = [float(np.sum(leaf * leaf)) for leaf in (residual[:rows], residual[rows:])]
    assert min(sums) > 0.5 * max(sums)
    scale = 1.2e308**0.25 / max(sums) ** 0.25

    def density(evolved, u, out=None):
        out = mode_density(evolved, u, out=out)
        out *= scale
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_BLOCK_POINTS", rows * grid.n2)
        mp.setattr(guidance, "mode_density", density)
        res = continuity_residual(state, grid, t)
        mp.setattr(model, "mode_density", density)  # the reference's density too
        residual, max_norm, _ = continuity_residual_reference(state, grid, t)
    sums = [float(np.sum(leaf * leaf)) for leaf in (residual[:rows], residual[rows:])]
    assert max(sums) < math.inf and sum(sums) == math.inf
    assert res.max_norm == max_norm
    assert res.l2_norm == leaf_l2_norm(residual, grid.h, rows) < math.inf


def test_tiny_residual_keeps_its_l2_norm():
    # densities scaled by 2**-350 each scale rho, and so the residual, by
    # 2**-700 exactly; its squares, near 1e-430, round to 0 unless l2_norm
    # is summed over the residual scaled back up by a power of two
    state, grid, t = moving_grid(31)
    res = continuity_residual(state, grid, t)

    def density(evolved, u, out=None):
        out = mode_density(evolved, u, out=out)
        out *= 2.0**-350
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(guidance, "_BLOCK_POINTS", 32 * grid.n2)  # two leaves
        mp.setattr(guidance, "mode_density", density)
        tiny = continuity_residual(state, grid, t)
    assert tiny.max_norm == math.ldexp(res.max_norm, -700)
    assert tiny.l2_norm == math.ldexp(res.l2_norm, -700)


def test_continuity_grid_coverage_enforced():
    state = default_state()
    grid = ResidualGrid(y1_min=-1.0, y2_min=-1.0, n1=21, n2=21, h=0.1, tau=1e-3)
    with pytest.raises(ValueError, match="±5|5 marginal"):
        continuity_residual(state, grid, 2.0)


def test_continuity_too_coarse_warns():
    state = default_state()
    t = 2.0
    grid = grid_for_state(state, t, h=1.0)
    with pytest.warns(RuntimeWarning, match="coarse|feature"):
        res = continuity_residual(state, grid, t)
    assert res.too_coarse


@pytest.mark.parametrize("wavenumbers", [(4e3, 0.0), (1e6, 0.0), (0.0, 250.0), (0.0, 0.0)])
def test_continuity_tau_just_inside_its_bound_converges(wavenumbers):
    # a drifting cm or relative mode, or none; at cm_wavenumber = 1e6 the
    # default tau = 1e-3 gave a coarse/fine ratio of 0.994 and no warning
    cm_wavenumber, rel_wavenumber = wavenumbers
    state = TwoParticleState.from_widths(
        0.05, 1.0, cm_wavenumber=cm_wavenumber, rel_wavenumber=rel_wavenumber
    )
    t = 2.0
    limit = guidance._max_grid_tau(state, t)
    assert grid_for_state(state, t).tau == min(1e-3, limit)
    grid = grid_for_state(state, t, tau=0.99 * limit)
    coarse = continuity_residual(state, grid, t)
    fine = continuity_residual(state, grid.refined(), t)
    assert not coarse.too_coarse
    assert 3.9 < coarse.max_norm / fine.max_norm < 4.1
    with pytest.warns(RuntimeWarning, match="tau"):
        assert continuity_residual(state, grid_for_state(state, t, tau=1.01 * limit), t).too_coarse


@pytest.mark.parametrize("widths", [(0.05, 1.0), (1e-120, 1e-120)])
def test_continuity_tau_at_its_lower_bound_converges(widths):
    # at t = 1e10 tau = 1e-3 read coarse/fine ratios of 2.91 and 2.35: the
    # rounding of the densities swamped their change over the window
    state = TwoParticleState.from_widths(*widths)
    t = 1e10
    shortest = guidance._min_grid_tau(state, t)
    grid = grid_for_state(state, t)
    # past the spreading time the rate is 1/t, so q = 0.25 / (5 / t)
    assert grid.tau == 2.0 * shortest == pytest.approx(2.0**-34 * 0.25 * t / 5.0, rel=1e-12)
    coarse = continuity_residual(state, grid, t)
    fine = continuity_residual(state, grid.refined(), t)
    assert not coarse.too_coarse and not fine.too_coarse
    for norm in ("max_norm", "l2_norm"):
        assert 3.5 <= getattr(coarse, norm) / getattr(fine, norm) <= 4.5
    with pytest.warns(RuntimeWarning, match=r"^grid_tau = .* is below .* at t = 1e\+10;"):
        assert continuity_residual(state, grid_for_state(state, t, tau=0.99 * shortest), t).too_coarse
    # a density at rest has no change for rounding to swamp
    assert guidance._min_grid_tau(state, 0.0) == 0.0


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
def test_grid_for_state_rejects_bad_spacing(h):
    with pytest.raises(ValueError, match="h must be positive"):
        grid_for_state(default_state(), 1.0, h=h)


def test_residual_grid_points_must_fit_an_index():
    n2 = np.iinfo(np.intp).max // 3
    ResidualGrid(y1_min=0.0, y2_min=0.0, n1=3, n2=n2, h=0.1, tau=1e-3)
    with pytest.raises(ValueError, match=re.escape(f"grid of 3 x {n2 + 1:.6g} points exceeds")):
        ResidualGrid(y1_min=0.0, y2_min=0.0, n1=3, n2=n2 + 1, h=0.1, tau=1e-3)


@pytest.mark.parametrize("axis", ["y1_min", "y2_min"])
@pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
def test_residual_grid_origin_must_be_finite(axis, origin):
    corner = {"y1_min": -1.0, "y2_min": -1.0, axis: origin}
    with pytest.raises(ValueError, match=f"{axis} must be finite"):
        ResidualGrid(**corner, n1=21, n2=21, h=0.1, tau=1e-3)


def test_residual_grid_validation():
    with pytest.raises(ValueError):
        ResidualGrid(y1_min=0.0, y2_min=0.0, n1=21, n2=21, h=-0.1, tau=1e-3)
    with pytest.raises(ValueError):
        ResidualGrid(y1_min=0.0, y2_min=0.0, n1=2, n2=21, h=0.1, tau=1e-3)
    grid = ResidualGrid(y1_min=-1.0, y2_min=-1.0, n1=21, n2=21, h=0.1, tau=1e-3)
    fine = grid.refined()
    assert fine.n1 == 41 and fine.h == 0.05 and fine.tau == 5e-4
    assert fine.y1_axis[-1] == pytest.approx(grid.y1_axis[-1], abs=1e-15)


@pytest.mark.parametrize("center", [{"cm_center": 1e13}, {"cm_center": 1e14}, {"rel_center": 1e15}])
def test_continuity_convergence_at_far_centers(center):
    # grid_for_state and continuity_residual on the far state itself read
    # max-norm ratios of 1.76, 0.543 and 0.458: its grid points round away
    # what the residual resolves
    state = TwoParticleState.from_widths(0.05, 1.0, **center)
    levels = continuity_convergence(state, 2.0)
    assert list(levels) == ["coarse", "fine"]
    (coarse_grid, coarse), (fine_grid, fine) = levels.values()
    assert fine_grid == coarse_grid.refined()
    assert coarse_grid == grid_for_state(state.at_origin(), 2.0)
    for norm in ("max_norm", "l2_norm"):
        assert 3.5 <= getattr(coarse, norm) / getattr(fine, norm) <= 4.5


def test_continuity_convergence_refuses_an_underflowing_residual(monkeypatch):
    # the coarse grid reads 0 on both norms; the fine grid is never evaluated
    calls = []

    def counted(*args):
        calls.append(args)
        return continuity_residual(*args)

    monkeypatch.setattr(guidance, "continuity_residual", counted)
    state = TwoParticleState.from_widths(1e-149, 1e-149)
    text = (
        "continuity residual underflows: the coarse grid's max_norm = 0 is below "
        "2.22507e-308, the smallest normal double"
    )
    with pytest.raises(FloatingPointError, match=f"^{re.escape(text)}$"):
        continuity_convergence(state, 1e10)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "level, grid, text",
    [
        ("coarse", {"h": 1.0}, "grid_h = 1 exceeds 0.559, a quarter of the narrowest density feature"),
        # the coarse tau is admitted; its half, the fine tau, is below the shortest
        ("fine", {"tau": 0.02}, "grid_tau = 0.01 is below 0.01455, the shortest time in which "
         "the density changes by more than its rounding"),
    ],
)
def test_continuity_convergence_refuses_a_coarse_grid_before_any_residual(
    monkeypatch, level, grid, text
):
    calls = []
    monkeypatch.setattr(guidance, "continuity_residual", lambda *args: calls.append(args))
    t = 2.0 if level == "coarse" else 1e10
    message = f"{text} at t_final on the {level} grid"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        continuity_convergence(default_state(), t, **grid)
    assert calls == []


@pytest.mark.parametrize("h", [5e-324, 1e-320])
def test_subnormal_grid_h_is_refused_for_its_point_count(h):
    # 5 stds over a subnormal h overflow to inf, which math.ceil cannot count
    message = "^grid of inf x inf points exceeds the .* points an array can index$"
    with pytest.raises(ValueError, match=message):
        grid_for_state(default_state(), 2.0, h=h)
    with pytest.raises(ValueError, match=message):
        continuity_convergence(default_state(), 2.0, h=h)


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(guidance.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(guidance.os, "cpu_count", lambda: 3)
    assert guidance._usable_cpus() == 3
    monkeypatch.setattr(guidance.os, "cpu_count", lambda: None)
    assert guidance._usable_cpus() == 1


@pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
def test_physical_memory_the_platform_does_not_report_is_inf(monkeypatch, error):
    def sysconf(name):
        raise error(name)

    monkeypatch.setattr(guidance.os, "sysconf", sysconf)
    assert guidance._physical_memory() == math.inf
