"""Analytic state: spread law, normalization, densities, widths."""

import math
import re

import numpy as np
import pytest

from bohm_equilibrium import (
    Correlation,
    GaussianMode,
    PhysicalParams,
    TwoParticleState,
    constraint_width,
    eval_density,
    evolve_mode,
    mode_coordinates,
    observable_normal,
    particle_coordinates,
    sample_equilibrium,
)
from bohm_equilibrium.model import _require_finite, _spread_rate

from _oracles import free_gaussian_amplitude, pair_amplitude, spectral_free_packet, state_modes

PARAMS = PhysicalParams()


def default_state():
    return TwoParticleState.from_widths(sigma_narrow=0.05, sigma_wide=1.0)


def test_evolve_mode_identity_at_t0():
    mode = GaussianMode(sigma0=1.0, center0=0.3, coord_mass=1.0)
    ev = evolve_mode(mode, PARAMS, 0.0)
    assert ev.sigma == 1.0
    assert ev.center == 0.3
    assert ev.stretch_rate == 0.0


def test_spread_law_spot_values():
    ev = evolve_mode(GaussianMode(sigma0=1.0, coord_mass=1.0), PARAMS, 2.0)
    assert ev.sigma == pytest.approx(math.sqrt(2.0), rel=1e-12)
    ev = evolve_mode(GaussianMode(sigma0=0.1, coord_mass=1.0), PARAMS, 2.0)
    assert ev.sigma == pytest.approx(0.1 * math.sqrt(1.0 + 100.0**2), rel=1e-12)
    assert ev.sigma == pytest.approx(10.00050, abs=5e-6)


@pytest.mark.parametrize("sigma0", [0.05, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_spread_law_against_spectral_propagation(sigma0, t):
    ev = evolve_mode(GaussianMode(sigma0=sigma0, coord_mass=1.0), PARAMS, t)
    mean, std, norm = spectral_free_packet(sigma0, 1.0, 1.0, t)
    assert abs(norm - 1.0) < 1e-10
    assert std == pytest.approx(ev.sigma, rel=1e-6)
    assert abs(mean - ev.center) < 1e-9 * max(1.0, ev.sigma)


def test_spread_law_oracle_covers_coordinate_masses():
    # the state's modes carry masses 2m and m/2, not 1
    for sigma0, m_c in ((0.05, 2.0), (1.0, 0.5)):
        ev = evolve_mode(GaussianMode(sigma0=sigma0, coord_mass=m_c), PARAMS, 2.0)
        _, std, _ = spectral_free_packet(sigma0, m_c, 1.0, 2.0)
        assert std == pytest.approx(ev.sigma, rel=1e-6)


def test_drifting_mode_center_and_width():
    mode = GaussianMode(sigma0=0.5, center0=-1.0, wavenumber=3.0, coord_mass=1.0)
    ev = evolve_mode(mode, PARAMS, 1.5)
    mean, std, _ = spectral_free_packet(0.5, 1.0, 1.0, 1.5, wavenumber=3.0, center0=-1.0)
    assert ev.center == pytest.approx(-1.0 + 3.0 * 1.5, rel=1e-12)
    assert mean == pytest.approx(ev.center, rel=1e-9)
    assert std == pytest.approx(ev.sigma, rel=1e-6)


def test_stretch_rate_at_late_times():
    # beta = 0.5, so (beta * t)^2 overflows past t = 2.7e154, where the rate
    # beta * sf / (1 + sf^2) read 0 instead of about 1 / t
    mode = GaussianMode(sigma0=1.0, coord_mass=1.0)
    times = np.array([0.0, 2.0, 1e150, 2.68e154, 2.69e154, 1e155, 1e300, -1e300])
    rates = evolve_mode(mode, PARAMS, times).stretch_rate
    # rate * t = sf^2 / (1 + sf^2): 0, then 1/2 at sf = 1, then 1 to rounding
    assert (rates * times).tolist() == pytest.approx([0.0, 0.5, 1, 1, 1, 1, 1, 1], rel=1e-15)
    # array times give elementwise the bits of scalar calls, also where no
    # square overflows (the first four)
    scalar = [evolve_mode(mode, PARAMS, float(t)).stretch_rate for t in times]
    assert rates.tobytes() == np.array(scalar).tobytes()
    assert evolve_mode(mode, PARAMS, times[:4]).stretch_rate.tobytes() == rates[:4].tobytes()


def test_evolve_mode_array_times_match_scalar_calls():
    # the rest of the mode beside the stretch rate above: array times, also
    # where (beta * t)^2 overflows (beta = 0.5), give the bits of scalar calls
    mode = GaussianMode(sigma0=1.0, center0=0.3, wavenumber=1.7, coord_mass=1.0)
    times = np.array([0.0, 2.0, 1e150, 2.68e154, 2.69e154, 1e155, 1e300, -1e300])
    evolved = evolve_mode(mode, PARAMS, times)
    scalar = [evolve_mode(mode, PARAMS, float(t)) for t in times]
    expected = np.array([ev.center for ev in scalar])
    assert evolved.center.tobytes() == expected.tobytes()
    assert {ev.drift for ev in scalar} == {evolved.drift} == {1.7}
    u = np.full(times.shape, -0.4)
    expected = np.array([ev.velocity(-0.4) for ev in scalar])
    assert all(type(ev.velocity(-0.4)) is float for ev in scalar)  # a float stays a float
    assert evolved.velocity(u).tobytes() == expected.tobytes()
    assert evolved.velocity(u, out=u) is u and u.tobytes() == expected.tobytes()
    # a float time keeps the width sigma0 * hypot(1, beta * t) to the bit
    for t, ev in zip(times.tolist(), scalar):
        assert ev.sigma == mode.sigma0 * math.hypot(1.0, 0.5 * t)


def test_evolve_mode_past_the_overflow_of_beta_t():
    # beta = 2.5e299, so beta * t overflows past t = 7.19e8; sigma and the
    # stretch rate go on as their limits (hbar / (2 m_c sigma0)) * |t| and
    # 1 / t, where sigma was inf and the rate 0. Short of it both keep the
    # bits of their first forms; the rate beta * sf / (1 + sf^2) is taken
    # as beta / (sf + 1 / sf) where its numerator overflows (sf past 7.2e8)
    mode = GaussianMode(sigma0=1e-150, coord_mass=2.0)
    beta = _spread_rate(mode, PARAMS)
    assert beta == pytest.approx(2.5e299, rel=1e-15)
    times = np.array([1e-300, 1e-291, 7.18e8, 7.19e8, 7.2e8, 1e10, -1e10, 1e300])
    scalar = [evolve_mode(mode, PARAMS, float(t)) for t in times]
    spreads = [beta * t for t in times.tolist()]
    assert all(map(math.isfinite, spreads[:4])) and all(map(math.isinf, spreads[4:]))
    for t, ev in zip(times[:4].tolist(), scalar):
        assert ev.sigma == 1e-150 * math.hypot(1.0, beta * t)
    for t, ev in zip(times[4:].tolist(), scalar[4:]):
        assert ev.sigma == (beta * 1e-150) * abs(t) and ev.stretch_rate == 1.0 / t
    assert scalar[0].stretch_rate == beta * (beta * 1e-300) / (1.0 + (beta * 1e-300) ** 2)
    rates_times = [ev.stretch_rate * t for ev, t in zip(scalar, times)]
    assert rates_times == pytest.approx([0.0588, *[1] * 7], rel=1e-3)
    sigmas = [ev.sigma for ev in scalar]
    assert sigmas[3] < sigmas[4] == pytest.approx(1.8e158, rel=1e-12)
    # array times give the bits of scalar calls, on both sides, warning-free
    evolved = evolve_mode(mode, PARAMS, times)
    assert evolved.stretch_rate.tobytes() == np.array([ev.stretch_rate for ev in scalar]).tobytes()
    assert evolved.sigma.tobytes() == np.array(sigmas).tobytes()


def test_negative_t_is_allowed_and_symmetric():
    mode = GaussianMode(sigma0=0.3, coord_mass=1.0)
    assert evolve_mode(mode, PARAMS, -2.0).sigma == evolve_mode(mode, PARAMS, 2.0).sigma


def test_mode_amplitude_norm_and_density_agree():
    # the textbook amplitude's |psi|^2 is the normal pdf evolve_mode describes
    mode = GaussianMode(sigma0=0.7, center0=0.2, wavenumber=1.3, coord_mass=1.0)
    for t in (0.0, 0.5, 3.0):
        ev = evolve_mode(mode, PARAMS, t)
        u = np.linspace(ev.center - 10 * ev.sigma, ev.center + 10 * ev.sigma, 20001)
        rho = np.abs(free_gaussian_amplitude((0.7, 1.0, 0.2, 1.3), PARAMS.hbar, u, t)) ** 2
        assert np.trapezoid(rho, u) == pytest.approx(1.0, abs=1e-10)
        direct = np.exp(-0.5 * ((u - ev.center) / ev.sigma) ** 2) / (
            ev.sigma * math.sqrt(2 * math.pi)
        )
        np.testing.assert_allclose(rho, direct, rtol=1e-9, atol=1e-300)


def test_two_particle_normalization():
    state = default_state()
    for t in (0.0, 2.0):
        cm, rel = state.evolved(t)
        std = math.hypot(cm.sigma, 0.5 * rel.sigma)
        axis = np.linspace(-8 * std, 8 * std, 1201)
        y1 = axis[:, None]
        y2 = axis[None, :]
        rho = eval_density(state, y1, y2, t)
        total = np.trapezoid(np.trapezoid(rho, axis, axis=1), axis)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_density_matches_amplitude_squared():
    # eval_density against |psi|^2 of the textbook amplitude, which shares no
    # code with it; the second state is difference-narrow, off-center and moving
    drifting = TwoParticleState.from_widths(
        0.3,
        1.1,
        correlation="difference",
        cm_center=0.2,
        rel_center=-0.4,
        cm_wavenumber=1.5,
        rel_wavenumber=-0.7,
    )
    rng = np.random.default_rng(7)
    for state in (default_state(), drifting):
        for t in (0.0, 0.7, 2.0):
            cm, rel = state.evolved(t)
            big_y = cm.center + cm.sigma * rng.uniform(-3, 3, size=200)
            small_y = rel.center + rel.sigma * rng.uniform(-3, 3, size=200)
            y1, y2 = particle_coordinates(big_y, small_y)
            rho = eval_density(state, y1, y2, t)
            assert np.all(rho >= 0.0)
            psi = pair_amplitude(state_modes(state), state.params.hbar, y1, y2, t)
            np.testing.assert_allclose(rho, np.abs(psi) ** 2, rtol=1e-13)


def test_density_antidiagonal_symmetry():
    # rel center may be nonzero; only the cm mode must be centered
    state = TwoParticleState.from_widths(0.05, 1.0, rel_center=0.4)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(100, 2))
    for t in (0.0, 1.0):
        a = eval_density(state, pts[:, 0], pts[:, 1], t)
        b = eval_density(state, -pts[:, 1], -pts[:, 0], t)
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_density_example_point_is_mode_product():
    state = default_state()
    cm, rel = state.evolved(2.0)
    lhs = eval_density(state, 1.0, 1.0, 2.0)
    rho_cm = math.exp(-0.5 * (1.0 / cm.sigma) ** 2) / (cm.sigma * math.sqrt(2 * math.pi))
    rho_rel = math.exp(0.0) / (rel.sigma * math.sqrt(2 * math.pi))
    assert lhs == pytest.approx(rho_cm * rho_rel, rel=1e-12)


def test_constraint_width_values():
    state = default_state()
    assert constraint_width(state, 0.0, "sum") == pytest.approx(0.1, rel=1e-15)
    assert constraint_width(state, 0.0, "difference") == 1.0
    width = constraint_width(state, 2.0, "sum")
    assert width == pytest.approx(0.1 * math.sqrt(1.0 + 200.0**2), rel=1e-12)
    assert width == pytest.approx(20.00025, abs=5e-4)
    with pytest.raises(ValueError):
        constraint_width(state, 2.0, "product")


def test_observable_normal_matches_monte_carlo():
    state = default_state()
    positions = sample_equilibrium(state, 1_000_000, seed=42)
    for name in ("y1", "y2", "y1+y2", "y1-y2"):
        mean, std = observable_normal(state, 0.0, name)
        values = {
            "y1": positions[:, 0],
            "y2": positions[:, 1],
            "y1+y2": positions[:, 0] + positions[:, 1],
            "y1-y2": positions[:, 0] - positions[:, 1],
        }[name]
        assert np.std(values, ddof=1) == pytest.approx(std, rel=5e-3)
        assert abs(np.mean(values) - mean) < 5 * std / math.sqrt(positions.shape[0])
    with pytest.raises(ValueError):
        observable_normal(state, 0.0, "y1*y2")


def test_observable_normal_composition():
    state = TwoParticleState.from_widths(0.3, 2.0, rel_center=0.5, cm_center=-0.1)
    cm, rel = state.evolved(1.7)
    mean, std = observable_normal(state, 1.7, "y1")
    assert mean == pytest.approx(cm.center + 0.5 * rel.center, rel=1e-12)
    assert std == pytest.approx(math.hypot(cm.sigma, 0.5 * rel.sigma), rel=1e-12)


@pytest.mark.parametrize(
    "state, t, observable",
    [
        # the cm center reaches 1.7e308 at t = 2, so the mean 2 * Y is inf
        (TwoParticleState.from_widths(0.05, 1.0, cm_wavenumber=1.7e308), 2.0, "y1+y2"),
        # beta * t = 1e311 for the narrow mode; past that overflow its width
        # is (hbar / (2 m_c sigma0)) * t = 5e308, past double too
        (TwoParticleState.from_widths(0.005, 1.0), 1e307, "y1"),
    ],
)
def test_observable_normal_that_overflows_raises(state, t, observable):
    message = f"the law of {observable} at t = {t:g} is not finite in double precision"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        observable_normal(state, t, observable)


def test_mode_coordinate_roundtrip():
    y1, y2 = 0.37, -1.2
    big_y, small_y = mode_coordinates(y1, y2)
    assert big_y == pytest.approx(0.5 * (y1 + y2), rel=1e-15)
    assert small_y == y1 - y2
    back = particle_coordinates(big_y, small_y)
    assert back[0] == pytest.approx(y1, rel=1e-15)
    assert back[1] == pytest.approx(y2, rel=1e-15)


# signed zeros, infinities, NaN, subnormals, 1e308 (whose sum with itself
# overflows) and two plain values; PAIRS holds every ordered pair of them
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1e308, -1e308, 0.75, -3])
PAIRS = (np.repeat(SPECIAL, SPECIAL.size), np.tile(SPECIAL, SPECIAL.size))
# (cm, rel): the pairs, or a scalar 0.0 broadcast against either side
COORDINATE_SIDES = {"pairs": PAIRS, "cm-0": (0.0, PAIRS[1]), "rel-0": (PAIRS[0], 0.0)}


def _coordinate_out(into, shape, rel):
    """out for particle_coordinates: none, the columns of one (..., 2) array, or (new, rel)."""
    if into == "none":
        return None, None
    if into == "columns":
        positions = np.empty(shape + (2,))
        return positions[..., 0], positions[..., 1]
    return np.empty(shape), rel


@pytest.mark.parametrize(
    "sides, into",
    [
        (sides, into)
        for sides in COORDINATE_SIDES
        for into in ("none", "columns", "rel")
        if (sides, into) != ("rel-0", "rel")  # a scalar rel cannot be out[1]
    ],
)
def test_particle_coordinates_out_matches_the_inline_form_bitwise(sides, into):
    # own copies: rel may be passed as out[1]
    cm, rel = (np.array(value) for value in COORDINATE_SIDES[sides])
    shape = np.broadcast_shapes(cm.shape, rel.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        want = (cm + 0.5 * rel, cm - 0.5 * rel)
        cm_before, rel_before = cm.tobytes(), rel.tobytes()
        out = _coordinate_out(into, shape, rel)
        got = particle_coordinates(cm, rel, out=out)
    for ours, inline in zip(got, want):
        assert ours.shape == inline.shape and ours.tobytes() == inline.tobytes()
    if into != "none":
        assert got[0] is out[0] and got[1] is out[1]
    assert cm.tobytes() == cm_before
    if into != "rel":
        assert rel.tobytes() == rel_before


def test_correlation_labels():
    assert Correlation.from_label("sum") is Correlation.SUM_NARROW
    assert Correlation.from_label("difference") is Correlation.DIFFERENCE_NARROW
    assert Correlation.from_label(Correlation.SUM_NARROW) is Correlation.SUM_NARROW
    with pytest.raises(ValueError):
        Correlation.from_label("both")


def test_from_widths_orientations():
    sum_state = TwoParticleState.from_widths(0.05, 1.0, correlation="sum")
    assert sum_state.cm_mode.sigma0 == 0.05
    assert sum_state.rel_mode.sigma0 == 1.0
    assert sum_state.narrow_mode is sum_state.cm_mode
    diff_state = TwoParticleState.from_widths(0.05, 1.0, correlation="difference")
    assert diff_state.rel_mode.sigma0 == 0.05
    assert diff_state.cm_mode.sigma0 == 1.0
    assert diff_state.narrow_mode is diff_state.rel_mode
    assert diff_state.wide_mode is diff_state.cm_mode


def test_with_narrow_sigma():
    state = default_state().with_narrow_sigma(0.2)
    assert state.cm_mode.sigma0 == 0.2
    assert state.rel_mode.sigma0 == 1.0


def test_coordinate_masses_enforced():
    params = PhysicalParams()
    cm = GaussianMode(sigma0=0.05, coord_mass=2.0)
    rel = GaussianMode(sigma0=1.0, coord_mass=0.5)
    TwoParticleState(params=params, cm_mode=cm, rel_mode=rel)
    with pytest.raises(ValueError, match="coord_mass"):
        TwoParticleState(
            params=params,
            cm_mode=GaussianMode(sigma0=0.05, coord_mass=1.0),
            rel_mode=rel,
        )


def test_relative_coordinate_mass_enforced():
    cm = GaussianMode(sigma0=0.05, coord_mass=2.0)
    rel = GaussianMode(sigma0=1.0, coord_mass=1.0)
    with pytest.raises(ValueError, match=r"^rel_mode.coord_mass must equal mass/2 = 0.5, got 1.0$"):
        TwoParticleState(params=PhysicalParams(), cm_mode=cm, rel_mode=rel)


@pytest.mark.parametrize(
    "widths, mode",
    [((1e-200, 1.0), "narrow"), ((1e-160, 1.0), "narrow"), ((0.05, 1e200), "wide")],
)
def test_spreading_rate_must_be_finite(widths, mode):
    # 1e-200 squares to 0, 1e-160 gives beta = inf, 1e200 squares to overflow
    with pytest.raises(ValueError, match=f"{mode} mode sigma0 .* not positive and finite"):
        TwoParticleState.from_widths(*widths)


def test_with_narrow_sigma_checks_the_spreading_rate():
    with pytest.raises(ValueError, match="narrow mode sigma0 = 1e-200"):
        default_state().with_narrow_sigma(1e-200)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError, match="sigma0"):
        GaussianMode(sigma0=0.0)
    with pytest.raises(ValueError, match="sigma0"):
        GaussianMode(sigma0=-1.0)
    with pytest.raises(ValueError, match="sigma0"):
        GaussianMode(sigma0=float("nan"))
    with pytest.raises(ValueError, match="coord_mass"):
        GaussianMode(sigma0=1.0, coord_mass=0.0)
    with pytest.raises(ValueError, match="hbar"):
        PhysicalParams(hbar=0.0)
    with pytest.raises(ValueError, match="mass"):
        PhysicalParams(mass=-2.0)
    mode = GaussianMode(sigma0=1.0)
    with pytest.raises(ValueError, match="finite"):
        evolve_mode(mode, PARAMS, float("inf"))
    with pytest.raises(ValueError, match="finite"):
        eval_density(default_state(), float("nan"), 0.0, 1.0)


@pytest.mark.parametrize(
    "value",
    [1.5, -3, True, np.float64(2.0), np.float32(2.0), np.int64(7), np.zeros((2, 3)), [0.5, 1.0]],
)
def test_require_finite_accepts_finite(value):
    _require_finite("x", value)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"), np.array([0.0, math.nan])],
)
def test_require_finite_rejects_non_finite(value):
    with pytest.raises(ValueError) as info:
        _require_finite("x", value)
    assert str(info.value) == f"x must be finite, got {value!r}"
