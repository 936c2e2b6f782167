"""Velocity field: closed form vs finite differences, continuity residual."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bohm_equilibrium.guidance as guidance
from bohm_equilibrium import (
    GaussianMode,
    PhysicalParams,
    ResidualGrid,
    TwoParticleState,
    continuity_residual,
    grid_for_state,
    particle_coordinates,
    substream_normals,
    velocity,
)
from bohm_equilibrium.model import mode_field, observable_normal

from _oracles import continuity_residual_reference, state_modes, velocity_fd

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
    v = mode_field(GaussianMode(sigma0=1.0, coord_mass=1.0), PARAMS, 2.0).velocity(1.0)
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
        rows = max(1, guidance._BLOCK_POINTS // grid.n2)
        assume(grid.n1 % rows != 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # too_coarse
            res = continuity_residual(state, grid, t)
    _, max_norm, l2_norm = continuity_residual_reference(state, grid, t)
    assert grid.n1 > rows
    assert res.max_norm == max_norm
    assert res.l2_norm == l2_norm


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


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
def test_grid_for_state_rejects_bad_spacing(h):
    with pytest.raises(ValueError, match="h must be positive"):
        grid_for_state(default_state(), 1.0, h=h)


def test_residual_grid_validation():
    with pytest.raises(ValueError):
        ResidualGrid(y1_min=0.0, y2_min=0.0, n1=21, n2=21, h=-0.1, tau=1e-3)
    with pytest.raises(ValueError):
        ResidualGrid(y1_min=0.0, y2_min=0.0, n1=2, n2=21, h=0.1, tau=1e-3)
    grid = ResidualGrid(y1_min=-1.0, y2_min=-1.0, n1=21, n2=21, h=0.1, tau=1e-3)
    fine = grid.refined()
    assert fine.n1 == 41 and fine.h == 0.05 and fine.tau == 5e-4
    assert fine.y1_axis[-1] == pytest.approx(grid.y1_axis[-1], abs=1e-15)
