"""KS statistic, equivariance, constraint surface, regularization sweep."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import bohm_equilibrium.analysis as analysis
import bohm_equilibrium.dynamics as dynamics
from bohm_equilibrium import (
    EnsembleFailureError,
    IntegratorConfig,
    TwoParticleState,
    constraint_surface_experiment,
    constraint_width,
    equivariance_check,
    integrate_trajectory,
    ks_statistic,
    observable_normal,
    propagate_ensemble,
    regularization_sweep,
    sample_constraint_surface,
    sample_equilibrium,
    substream_normals,
)
from bohm_equilibrium import _normal
from bohm_equilibrium._normal import ndtri
from bohm_equilibrium.analysis import normal_cdf

from _oracles import cdf_sup_distance, ks_reference, ndtr_reference, normal_ks_reference

# brute-force sup |Phi(x/2) - Phi(x)|, the large-n limit of the
# doubled-std KS statistic (frozen from a 2e6-point grid scan)
DOUBLED_STD_SUP = 0.16133728441737238


def default_state():
    return TwoParticleState.from_widths(0.05, 1.0)


def default_config():
    return IntegratorConfig(dt=1e-3, t_final=2.0)


def test_ks_statistic_exact_small_case():
    # two samples at the median: D = |1 - F(0)| = 0.5 exactly
    assert ks_statistic(np.array([0.0, 0.0]), normal_cdf(0.0, 1.0)) == 0.5


def test_ks_statistic_requires_two_samples():
    with pytest.raises(ValueError):
        ks_statistic(np.array([0.0]), normal_cdf(0.0, 1.0))
    with pytest.raises(ValueError):
        ks_statistic(np.array([]), normal_cdf(0.0, 1.0))


def test_ks_statistic_matches_scipy():
    z = substream_normals(42, 0, 5000)[:, 0]
    ours = ks_statistic(z, normal_cdf(0.0, 1.0))
    theirs = scipy.stats.kstest(z, "norm").statistic
    assert ours == pytest.approx(theirs, rel=1e-12)


def test_ks_statistic_in_law_samples_are_small():
    cdf = normal_cdf(0.0, 1.0)
    for seed in (42, 43, 44):
        z = substream_normals(seed, 0, 100_000)[:, 0]
        assert ks_statistic(z, cdf) < 1.95 / math.sqrt(100_000)


def test_ks_statistic_detects_wrong_width():
    z = substream_normals(42, 0, 10_000)[:, 0]
    ks = ks_statistic(2.0 * z, normal_cdf(0.0, 1.0))
    assert ks > 0.1
    assert ks == pytest.approx(DOUBLED_STD_SUP, abs=0.02)
    # cross-check the frozen constant itself
    sup = cdf_sup_distance(normal_cdf(0.0, 2.0), normal_cdf(0.0, 1.0), -12.0, 12.0)
    assert sup == pytest.approx(DOUBLED_STD_SUP, abs=1e-9)


def test_ks_median_shrinks_with_n():
    cdf = normal_cdf(0.0, 1.0)

    def median_ks(n):
        values = [
            ks_statistic(substream_normals(seed, 0, n)[:, 0], cdf)
            for seed in range(100, 110)
        ]
        return float(np.median(values))

    m500, m2000, m8000 = median_ks(500), median_ks(2000), median_ks(8000)
    assert m500 > m2000 > m8000


def _ks_cases():
    """(samples, mean, std): tiny, default-size, tied, signed-zero, saturated and NaN samples."""
    rng = np.random.default_rng(21)
    z = rng.standard_normal(100_000)
    yield np.array([0.3, -1.2]), 0.0, 1.0
    yield np.array([2.0, 2.0, -0.5]), 0.25, 1.5
    yield 1.3 * z + 0.1, 0.1, 1.3
    yield np.round(z, 2), 0.0, 1.0  # about 800 distinct values
    yield np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]), 0.0, 1.0
    yield np.concatenate([z[:1000], [-40.0, 40.0, -1e300, 1e300, -np.inf, np.inf]]), 0.0, 1.0
    yield np.concatenate([z[:999], [np.nan]]), 0.0, 1.0
    yield 1e-3 * z[:5000], 0.0, 1e-4  # most samples in the saturated bands


def test_ks_statistic_matches_whole_array_reference_bitwise():
    for samples, mean, std in _ks_cases():
        before = samples.tobytes()
        ours = ks_statistic(samples, normal_cdf(mean, std))
        assert np.float64(ours).tobytes() == np.float64(
            normal_ks_reference(samples, mean, std)
        ).tobytes()
        assert samples.tobytes() == before


def test_ks_statistic_with_a_cdf_that_returns_its_argument():
    # the differences may not be written over values the CDF returned
    u = np.random.default_rng(2).uniform(size=1000)
    for cdf in (lambda x: x, lambda x: x[:]):
        assert ks_statistic(u, cdf) == ks_reference(u, cdf)


BLOCK = analysis._KS_BLOCK  # the block size the bounds are taken over
EDGE_ARGUMENTS = math.sqrt(2.0) * _normal._EDGES  # ndtr's branch edges in standard units


def _quantiles(n):
    """The n midpoint quantiles of N(0, 1): every KS term is 0.5/n."""
    return ndtri((np.arange(n) + 0.5) / n)


def _plant_cluster(z, i0, m, above):
    """Sorted z with m values tied to one end of [i0 - m, i0 + m]: the largest term is at i0.

    above: z[i0 .. i0+m-1] take z[i0+m], and F(x_i0) - i0/n is about (m + 0.5)/n;
    otherwise z[i0-m+1 .. i0] take z[i0-m], and (i0+1)/n - F(x_i0) is.
    """
    z = np.sort(z)
    if above:
        z[i0 : i0 + m] = z[i0 + m]
    else:
        z[i0 - m + 1 : i0 + 1] = z[i0 - m]
    return z


@st.composite
def ks_samples(draw):
    """(samples, mean, std): one kind of hard case for the bounded KS kernel."""
    n = draw(st.one_of(st.sampled_from([2, 3, 31, 32, 33, 63, 64, 65, 95]), st.integers(2, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal(n)
    kinds = ["shifted", "ties", "zeros", "saturated", "edges", "nan", "planted"]
    kind = draw(st.sampled_from(kinds))
    mean, std = draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-3, 1e3))
    if kind == "shifted":  # the law moved by 1e-3 to 30 std
        z += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, math.log10(30.0)))
    elif kind == "ties":  # runs of equal values across every block boundary
        z.sort()
        r = draw(st.integers(1, 3))
        for k in range(BLOCK, n, BLOCK):
            z[max(k - r, 0) : k + r] = z[k]
    elif kind == "saturated":  # |z| >= 38: F is exactly 0 or 1 there
        far = rng.uniform(0.0, 1.0, n) < draw(st.floats(0.5, 1.0))
        z[far] = np.copysign(rng.uniform(38.0, 1e3, far.sum()), z[far])
    elif kind == "edges":  # a few ulps on either side of each branch edge
        mean, std = 0.0, 2.0 ** draw(st.integers(-8, 8))  # keeps (x - mean) / std exact
        near = np.concatenate([EDGE_ARGUMENTS, -EDGE_ARGUMENTS])
        picked = rng.integers(0, near.size, n)
        z = near[picked] + rng.integers(-8, 9, n) * np.spacing(near[picked])
    elif kind == "planted" and n >= 8:  # the largest term strictly inside a block
        z = _quantiles(n)
        m = draw(st.integers(2, max(2, n // 4)))
        i0 = draw(st.integers(m, n - m - 1))
        z = _plant_cluster(z, i0, m, draw(st.booleans()))
    elif kind == "zeros":
        mean = 0.0
    samples = mean + std * z
    if kind == "zeros":  # set after the shift, which would turn -0.0 into 0.0
        samples[rng.uniform(0.0, 1.0, n) < 0.5] = 0.0
        samples[rng.uniform(0.0, 1.0, n) < 0.3] = -0.0
    elif kind == "nan":  # one NaN, or several
        samples[rng.integers(0, n, draw(st.integers(1, min(n, 5))))] = np.nan
    rng.shuffle(samples)
    return samples, mean, std


@settings(max_examples=300, deadline=None)
@given(case=ks_samples(), lowered=st.booleans())
def test_bounded_ks_statistic_matches_whole_array_reference_bitwise(case, lowered):
    # lowered: the normal CDF minus up to 1/(4n), a function of x alone that
    # falls by up to 1/(4n) inside a block; every term inside a block still
    # lies 3/(4n) below its bound, so no block that may hold D is skipped
    samples, mean, std = case
    before = samples.tobytes()
    if lowered:

        def cdf(x):
            return ndtr_reference((x - mean) / std) - 0.25 / samples.size * np.sin(1e3 * x) ** 2

        ours, reference = ks_statistic(samples, cdf), ks_reference(samples, cdf)
    else:
        ours = ks_statistic(samples, normal_cdf(mean, std))
        reference = normal_ks_reference(samples, mean, std)
    assert np.float64(ours).tobytes() == np.float64(reference).tobytes()
    assert samples.tobytes() == before


def _counting(cdf, counts):
    """cdf that records how many points it gets and checks they are ascending, NaN last."""

    def counted(x):
        assert x.ndim == 1
        finite = x[~np.isnan(x)]
        assert finite.size == np.argmax(np.append(np.isnan(x), True))
        assert np.all(finite[1:] >= finite[:-1])
        counts.append(x.size)
        return cdf(x)

    return counted


@pytest.mark.parametrize("above", [True, False])
def test_ks_statistic_finds_a_maximum_inside_a_block(above):
    n, i0, m = 10_000, 5 * BLOCK + 13, 100
    samples = _plant_cluster(_quantiles(n), i0, m, above)
    x = np.sort(samples)
    f = ndtr_reference(x)
    k = np.arange(n, dtype=float)
    assert np.argmax(np.maximum((k + 1.0) / n - f, f - k / n)) == i0
    counts = []
    ours = ks_statistic(samples[::-1], _counting(normal_cdf(0.0, 1.0), counts))
    reference = normal_ks_reference(samples, 0.0, 1.0)
    assert np.float64(ours).tobytes() == np.float64(reference).tobytes()
    assert ours == pytest.approx((m + 0.5) / n, rel=1e-6)
    assert len(counts) == 2 and sum(counts) < 0.25 * n


def test_ks_statistic_evaluates_the_cdf_on_few_samples():
    # the two calls together take both ends of every block and the blocks
    # that may hold the maximum; a full evaluation would take all n points
    n = 100_000
    for seed in (42, 43, 44):
        counts = []
        ks_statistic(substream_normals(seed, 0, n)[:, 0], _counting(normal_cdf(0.0, 1.0), counts))
        assert len(counts) == 2
        assert sum(counts) < 0.25 * n


def test_normal_cdf_validation():
    with pytest.raises(ValueError):
        normal_cdf(0.0, 0.0)


def test_equivariance_check_default_state():
    reports = equivariance_check(
        default_state(), 20_000, 42, default_config(), [0.0, 0.5, 2.0]
    )
    assert [report.t for report in reports] == [0.0, 0.5, 2.0]
    noise = 1.95 / math.sqrt(20_000)
    for report in reports:
        assert report.max_ks < 1.5 * noise
        for stats in report.observables:
            assert stats.n == 20_000
            assert stats.empirical_std == pytest.approx(stats.analytic_std, rel=0.02)
    assert {s.observable for s in reports[0].observables} == {
        "y1",
        "y2",
        "y1+y2",
        "y1-y2",
    }
    assert reports[0].get("y1").analytic_std == pytest.approx(
        math.hypot(0.05, 0.5), rel=1e-12
    )
    with pytest.raises(KeyError):
        reports[0].get("y1*y2")


def test_equivariance_check_validates_times():
    state = default_state()
    config = default_config()
    with pytest.raises(ValueError):
        equivariance_check(state, 100, 42, config, [])
    with pytest.raises(ValueError):
        equivariance_check(state, 100, 42, config, [1.0, 0.5])
    with pytest.raises(ValueError):
        equivariance_check(state, 100, 42, config, [-0.5, 1.0])
    with pytest.raises(ValueError):
        equivariance_check(state, 100, 42, config, [1.0, 5.0])


@pytest.mark.parametrize("times", [[math.nan], [0.5, math.nan]])
def test_equivariance_check_rejects_nan_times_before_work(monkeypatch, times):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the times were validated")

    monkeypatch.setattr(analysis, "substream_normals", no_sampling)
    with pytest.raises(ValueError, match="times must lie within"):
        equivariance_check(default_state(), 100, 42, default_config(), times)


def test_experiments_reject_single_sample_before_work(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before n was validated")

    monkeypatch.setattr(analysis, "substream_normals", no_sampling)
    with pytest.raises(ValueError, match="samples must be at least 2"):
        equivariance_check(default_state(), 1, 42, default_config(), [1.0])
    with pytest.raises(ValueError, match="samples must be at least 2"):
        constraint_surface_experiment(default_state(), 1, 42, default_config())


def test_equivariance_check_refuses_stiff_rk4():
    # sigma_narrow = 0.005: beta = 1e4, so rate * step peaks at 5 for dt = 1e-3
    state = TwoParticleState.from_widths(0.005, 1.0)
    with pytest.raises(EnsembleFailureError, match="step 0.001; use method = rk45"):
        equivariance_check(state, 100, 42, default_config(), [1.0])


def test_equivariance_check_judges_each_legs_step():
    # sigma_narrow = 0.1: beta = 25, so rate * step peaks at 0.625 on the first
    # leg, one step of 0.05; the whole run's step, 2 / 59 = 0.0339, scores 0.42
    state = TwoParticleState.from_widths(0.1, 1.0)
    config = IntegratorConfig(dt=0.034, t_final=2.0)
    with pytest.raises(EnsembleFailureError, match="^narrow mode .* step 0.05; use method = rk45$"):
        equivariance_check(state, 2000, 42, config, [0.05, 2.0])


def test_equivariance_parallel_width_invariance():
    state = default_state()
    config = IntegratorConfig(dt=5e-3, t_final=1.0)
    a = equivariance_check(state, 2000, 42, config, [1.0], parallel_width=1)
    b = equivariance_check(state, 2000, 42, config, [1.0], parallel_width=8)
    for sa, sb in zip(a[0].observables, b[0].observables):
        assert sa.empirical_std == sb.empirical_std
        assert sa.ks == sb.ks


def test_equivariance_check_traces_under_48_bytes_per_sample():
    # the sampler converts its Philox words in chunks, and the start ensemble
    # is freed at the first transport: about 36 bytes per sample, where the
    # whole-array sampler and a start kept to the last snapshot took about 83
    n, times = 200_000, [0.5, 1.0, 1.5, 2.0]
    state, config = default_state(), default_config()
    equivariance_check(state, 2000, 42, config, times)  # lazy set-up stays out of the trace
    tracemalloc.start()
    try:
        equivariance_check(state, n, 42, config, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * n


def test_equivariance_legs_hold_one_ensemble_between_them():
    # the leg loop traced 7.263 MB at n = 2e5; an ensemble is 16 bytes per
    # sample, so keeping the start or any earlier leg alive adds 3.2 MB
    n, times = 200_000, [0.5, 1.0, 1.5, 2.0]
    state, config = default_state(), default_config()
    equivariance_check(state, 2000, 42, config, times)  # lazy set-up stays out of the trace
    tracemalloc.start()
    try:
        equivariance_check(state, n, 42, config, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7_263_000 + 8 * n  # half an ensemble over the measured peak


def test_numpy_integer_parallel_width_gives_the_same_reports():
    state, config = default_state(), default_config()
    one = equivariance_check(state, 2000, 42, config, [1.0, 2.0], parallel_width=1)
    assert equivariance_check(state, 2000, 42, config, [1.0, 2.0], np.int64(1)) == one
    with pytest.raises(ValueError, match=r"^parallel_width must be a positive integer, got 1\.0$"):
        equivariance_check(state, 2000, 42, config, [1.0], parallel_width=1.0)


def test_bool_seed_and_parallel_width_are_refused():
    state, config = default_state(), default_config()
    with pytest.raises(ValueError, match=r"^seed must be an integer, got True$"):
        equivariance_check(state, 100, True, config, [1.0])
    with pytest.raises(ValueError, match=r"^parallel_width must be a positive integer, got True$"):
        equivariance_check(state, 100, 42, config, [1.0], parallel_width=True)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
def test_non_integer_sample_counts_are_refused(n):
    state, config = default_state(), default_config()
    message = f"^samples must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        equivariance_check(state, n, 42, config, [1.0])
    with pytest.raises(ValueError, match=message):
        constraint_surface_experiment(state, n, 42, config)
    with pytest.raises(ValueError, match=message):
        regularization_sweep(state, [0.1], n, 42, config)
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        sample_equilibrium(state, n, 1)


def test_numpy_integer_sample_counts_draw_the_same_ensemble():
    state = default_state()
    np.testing.assert_array_equal(
        sample_equilibrium(state, np.int64(100), np.uint64(7), np.int32(3)),
        sample_equilibrium(state, 100, 7, 3),
    )


# carried as absolute positions, these runs read max KS 0.0266, 0.956,
# 0.0187, 0.216 and 0.460 against the noise level 0.0138: the step maps
# rounded offsets that grow with the center, and y1 + y2 lost Y to y/2
FAR_SETTINGS = {
    "cm_center=1e12": {"cm_center": 1e12},
    "cm_center=1e14": {"cm_center": 1e14},
    "rel_center=1e13": {"rel_center": 1e13},
    "sigma_wide=1e15": {"sigma_wide": 1e15},
    "sigma_wide=1e16": {"sigma_wide": 1e16},
}


@pytest.mark.parametrize("setting", FAR_SETTINGS.values(), ids=FAR_SETTINGS)
def test_equivariance_holds_at_far_centers_and_wide_ratios(setting):
    n = 20_000
    state = TwoParticleState.from_widths(**setting)
    report = equivariance_check(state, n, 42, default_config(), [2.0])[0]
    assert report.max_ks < 1.95 / math.sqrt(n)


@pytest.mark.parametrize("setting", ["cm_center=1e14", "rel_center=1e13"])
def test_far_center_reports_equal_the_centered_ones(setting):
    # width and KS are taken on the offsets, so adding the centers back can
    # no longer round them: at cm_center 1e14 that read max KS 0.006065
    # against 0.005863 centered (n = 20000)
    config = default_config()
    far = TwoParticleState.from_widths(**FAR_SETTINGS[setting])
    centered = TwoParticleState.from_widths()
    assert equivariance_check(far, 5000, 42, config, [0.0, 1.0, 2.0]) == equivariance_check(
        centered, 5000, 42, config, [0.0, 1.0, 2.0]
    )
    assert regularization_sweep(far, (0.4, 0.2), 5000, 42, config) == regularization_sweep(
        centered, (0.4, 0.2), 5000, 42, config
    )


def test_equivariance_still_integrates_a_fast_drift():
    # the translation to the origin keeps the wavenumbers, so the drift is
    # still integrated, and rounded, by the step maps; carrying offsets from
    # the moving center would hide a wrong drift in the field
    state = TwoParticleState.from_widths(cm_wavenumber=1e14)
    report = equivariance_check(state, 20_000, 42, default_config(), [2.0])[0]
    assert report.max_ks == pytest.approx(0.01024, abs=5e-5)


def test_equivariance_refuses_a_failed_trajectory(monkeypatch):
    # the first leg's map is planted so that the outermost of the 2000 draws
    # ends NaN. No row may be dropped: the failed draws are the outermost
    # ones, so dropping them cuts the tails
    state = default_state()
    map_modes = dynamics._map_modes
    legs = []

    def planted(a, b, scale, u0):
        legs.append(u0)
        final = map_modes(a, b, scale, u0)
        if len(legs) == 1:
            final[:, np.argmax(np.abs(u0[0]))] = np.nan
        return final

    monkeypatch.setattr(dynamics, "_map_modes", planted)
    config = IntegratorConfig(method="rk45", t_final=1.0)
    for times in ([1.0], [0.5, 1.0]):
        legs.clear()
        with pytest.raises(EnsembleFailureError, match="^1 of 2000 trajectories failed"):
            equivariance_check(state, 2000, 42, config, times)
        assert len(legs) == 1


FINITE = st.floats(-50.0, 50.0)
WIDTH = st.floats(1e-3, 1e2)


@settings(max_examples=200, deadline=None)
@given(
    sigmas=st.tuples(WIDTH, WIDTH),
    correlation=st.sampled_from(["sum", "difference"]),
    centers=st.tuples(FINITE, FINITE),
    wavenumbers=st.tuples(FINITE, FINITE),
    t=st.floats(-20.0, 20.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_observable_table_matches_closed_forms(
    sigmas, correlation, centers, wavenumbers, t, seed
):
    state = TwoParticleState.from_widths(
        *sigmas,
        correlation=correlation,
        cm_center=centers[0],
        rel_center=centers[1],
        cm_wavenumber=wavenumbers[0],
        rel_wavenumber=wavenumbers[1],
    )
    cm, rel = state.evolved(t)
    closed_forms = {
        "y1": (cm.center + 0.5 * rel.center, math.hypot(cm.sigma, 0.5 * rel.sigma)),
        "y2": (cm.center - 0.5 * rel.center, math.hypot(cm.sigma, 0.5 * rel.sigma)),
        "y1+y2": (2.0 * cm.center, 2.0 * cm.sigma),
        "y1-y2": (rel.center, rel.sigma),
    }
    for name, expected in closed_forms.items():
        assert observable_normal(state, t, name) == expected

    # the snapshot takes its statistics on the offsets from the start centers
    u = dynamics._sample_modes(state.at_origin(), substream_normals(seed, 0, 50))
    big_y, small_y = u
    expected_values = {
        "y1": big_y + 0.5 * small_y,
        "y2": big_y - 0.5 * small_y,
        "y1+y2": 2.0 * big_y,
        "y1-y2": small_y,
    }
    with mock.patch.object(analysis, "ks_statistic", wraps=ks_statistic) as spy:
        report = analysis._snapshot(state, u, t)
    assert [stats.observable for stats in report.observables] == list(expected_values)
    for call, expected in zip(spy.call_args_list, expected_values.values()):
        assert call.args[0].tobytes() == expected.tobytes()


def test_constraint_surface_experiment():
    report = constraint_surface_experiment(
        default_state(), 500, 42, default_config()
    )
    assert report.max_abs_sum <= 1e-9
    assert report.sum_width_empirical < 1e-9
    assert report.sum_width_equilibrium == pytest.approx(20.000249998437518, rel=1e-12)
    assert report.width_mismatch_ratio > 1e3
    assert report.diff_width_empirical == pytest.approx(
        report.diff_width_analytic, rel=0.1
    )
    assert report.diff_width_analytic == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_constraint_surface_reports_a_finite_mismatch_off_the_surface(monkeypatch):
    # every real run keeps y1 + y2 at exactly 0, where the ratio is inf; a
    # final planted off the surface takes the finite branch
    transport = analysis._transport
    offsets = np.where(np.arange(500) % 2 == 0, 0.25, -0.25)

    def planted(*args):
        final, times, maps = transport(*args)
        assert not final[0].any()
        final[0] = offsets
        return final, times, maps

    monkeypatch.setattr(analysis, "_transport", planted)
    report = constraint_surface_experiment(default_state(), 500, 42, default_config())
    assert report.max_abs_sum == 0.0  # the recorded maps are not planted
    assert report.sum_width_empirical == float(np.std(2.0 * offsets, ddof=1))
    assert report.width_mismatch_ratio == report.sum_width_equilibrium / report.sum_width_empirical
    assert 39.9 < report.width_mismatch_ratio < 40.0


@pytest.mark.parametrize("column", [0, 1])
def test_constraint_surface_refuses_a_nan_map(monkeypatch, column):
    # a NaN in one recorded map (not the final one) must not be skipped, in
    # the relative column too, which the |2Y| kernel does not read
    rk4_maps = dynamics._rk4_maps

    def planted(*args):
        times, a, b, scale = rk4_maps(*args)
        b[3, column] = np.nan
        return times, a, b, scale

    monkeypatch.setattr(dynamics, "_rk4_maps", planted)
    config = IntegratorConfig(dt=1e-2, t_final=0.1)
    with pytest.raises(EnsembleFailureError, match="^step map is not finite at t = 0.03$"):
        constraint_surface_experiment(default_state(), 40000, 42, config)


def test_constraint_surface_refuses_stiff_wide_rk4():
    # sigma_wide = 0.02: rk4 at dt = 1e-3 read diff_width_empirical 92.16
    # against the analytic 100.0 at n = 1e5, 35 standard errors off
    state = TwoParticleState.from_widths(0.05, 0.02)
    message = "^wide mode sigma0 = 0.02 .*; use method = rk45$"
    with pytest.raises(EnsembleFailureError, match=message):
        constraint_surface_experiment(state, 100, 42, default_config())


def test_constraint_surface_runs_rk45_past_the_rk4_limit():
    # the remedy rk4 names: rk45 records its maps as rk4 does, keeps y1+y2
    # at exactly 0 and the stiff wide mode's width within 5 standard errors
    n = 20_000
    state = TwoParticleState.from_widths(0.05, 0.02)
    config = IntegratorConfig(method="rk45", t_final=2.0)
    report = constraint_surface_experiment(state, n, 42, config)
    assert report.max_abs_sum == 0.0 and report.sum_width_empirical == 0.0
    standard_error = report.diff_width_analytic / math.sqrt(2 * (n - 1))
    assert report.diff_width_analytic == pytest.approx(100.00005, rel=1e-6)
    assert abs(report.diff_width_empirical - report.diff_width_analytic) <= 5 * standard_error


def test_constraint_surface_runs_with_stiff_narrow_rk4():
    # the narrow mode starts at exactly 0 and stays there for any step
    state = TwoParticleState.from_widths(0.005, 1.0)
    report = constraint_surface_experiment(state, 500, 42, default_config())
    assert report.max_abs_sum == 0.0
    assert report.diff_width_empirical == pytest.approx(
        report.diff_width_analytic, rel=0.1
    )


def test_constraint_surface_requires_centered_sum_narrow():
    config = default_config()
    diff_state = TwoParticleState.from_widths(0.05, 1.0, correlation="difference")
    with pytest.raises(ValueError, match="sum-narrow"):
        constraint_surface_experiment(diff_state, 10, 42, config)
    shifted = TwoParticleState.from_widths(0.05, 1.0, cm_center=0.3)
    with pytest.raises(ValueError, match="centered"):
        constraint_surface_experiment(shifted, 10, 42, config)


def test_regularization_sweep_rows():
    state = default_state()
    result = regularization_sweep(state, (0.4, 0.2), 5000, 42, default_config())
    assert len(result.rows) == 2
    noise = 1.95 / math.sqrt(5000)
    previous_r = 0.0
    for row in result.rows:
        assert row.r > previous_r
        previous_r = row.r
        # identity holds bitwise by construction
        assert row.r * row.delta_y_i == row.delta_y_f
        # and agrees with the evolved constraint width independently
        row_state = state.with_narrow_sigma(0.5 * row.delta_y_i)
        assert row.delta_y_f == pytest.approx(
            constraint_width(row_state, 2.0, "sum"), rel=1e-12
        )
        assert row.delta_y_f_empirical == pytest.approx(row.delta_y_f, rel=0.05)
        assert row.ks < 1.5 * noise


@pytest.mark.parametrize("centers", [(0.0, 0.0), (3.0, -2.0)])
def test_regularization_sweep_rows_equal_equivariance_runs(centers):
    # the sweep draws its normals once; each row must equal a full
    # equivariance_check of that width, which draws them again
    state = TwoParticleState.from_widths(0.05, 1.0, cm_center=centers[0], rel_center=centers[1])
    config = IntegratorConfig(dt=1e-3, t_final=1.0)
    result = regularization_sweep(state, (0.4, 0.1), 2000, 42, config)
    for width, row in zip((0.4, 0.1), result.rows):
        report = equivariance_check(state.with_narrow_sigma(0.5 * width), 2000, 42, config, [1.0])
        assert row.ks == report[0].max_ks
        assert row.delta_y_f_empirical == report[0].get("y1+y2").empirical_std


def test_regularization_sweep_difference_orientation():
    state = TwoParticleState.from_widths(0.05, 1.0, correlation="difference")
    result = regularization_sweep(state, (0.5,), 2000, 42, default_config())
    row = result.rows[0]
    row_state = state.with_narrow_sigma(0.5)
    assert row.delta_y_f == pytest.approx(
        constraint_width(row_state, 2.0, "difference"), rel=1e-12
    )
    assert row.delta_y_f_empirical == pytest.approx(row.delta_y_f, rel=0.1)


def test_regularization_sweep_rejects_stiff_rk4():
    # rk4 would print a wrong-physics row for the second width, so the sweep
    # fails and names rk45 instead of returning any row
    state = default_state()
    config = IntegratorConfig(dt=1e-3, t_final=0.05)
    with pytest.raises(EnsembleFailureError, match="method = rk45"):
        regularization_sweep(state, (0.4, 0.028), 100, 42, config)
    # the same widths are fine for the adaptive method
    rk45 = IntegratorConfig(method="rk45", t_final=0.05)
    result = regularization_sweep(state, (0.4, 0.028), 100, 42, rk45)
    assert len(result.rows) == 2


def test_regularization_sweep_guard_uses_effective_step():
    # t_final / dt = 1.47 rounds to one rk4 step of 0.05, not 0.034: the
    # guard must judge the step taken (0.5*beta*0.05 = 0.69 > 0.5)
    config = IntegratorConfig(dt=0.034, t_final=0.05)
    with pytest.raises(EnsembleFailureError, match="step 0.05; use method = rk45"):
        regularization_sweep(default_state(), (0.19,), 100, 42, config)


def _stiff_rk4_paths():
    """Per path: (a run the rk4 rule refuses, its mode and sigma0, a run from
    fixed-point starts that it admits, or None). At dt = 1e-3 rate * step
    peaks at 5 for sigma_narrow = 0.005 (beta = 1e4) and at 1.25 for
    sigma_wide = 0.02 (beta = 2500)."""
    narrow = TwoParticleState.from_widths(0.005, 1.0)
    wide = TwoParticleState.from_widths(0.05, 0.02)
    config = IntegratorConfig(dt=1e-3, t_final=0.5)
    recorded = IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=1)

    def surface_experiment():
        report = constraint_surface_experiment(narrow, 200, 42, config)
        return report.max_abs_sum, report.sum_width_empirical

    def surface_ensemble():
        ensemble = propagate_ensemble(narrow, sample_constraint_surface(narrow, 200, 42), recorded)
        frames = np.stack(list(ensemble.frames()))
        assert frames.shape == (501, 200, 2)
        return frames[..., 0] + frames[..., 1]

    def surface_trajectory():
        # the rel mode (beta = 1) spreads y1 - y2 = 0.6 by sqrt(1 + 0.5^2)
        trajectory = integrate_trajectory(narrow, (0.3, -0.3), recorded)
        assert trajectory.positions[-1, 0] == pytest.approx(0.3 * math.sqrt(1.25), rel=1e-12)
        return trajectory.positions[:, 0] + trajectory.positions[:, 1]

    return {
        "equivariance_check": (
            lambda: equivariance_check(narrow, 200, 42, config, [0.25, 0.5]),
            ("narrow", 0.005),
            None,
        ),
        "regularization_sweep": (
            lambda: regularization_sweep(default_state(), (0.4, 0.01), 200, 42, config),
            ("narrow", 0.005),
            None,
        ),
        "constraint_surface_experiment": (
            lambda: constraint_surface_experiment(wide, 200, 42, config),
            ("wide", 0.02),
            surface_experiment,
        ),
        "propagate_ensemble": (
            lambda: propagate_ensemble(narrow, sample_equilibrium(narrow, 200, 42), config),
            ("narrow", 0.005),
            surface_ensemble,
        ),
        "integrate_trajectory": (
            lambda: integrate_trajectory(narrow, (0.01, 0.02), config),
            ("narrow", 0.005),
            surface_trajectory,
        ),
    }


@pytest.mark.parametrize("path", list(_stiff_rk4_paths()))
def test_every_path_refuses_a_stiff_rk4_step_with_the_same_text(path):
    # the rule is judged once, where each run's step maps meet its starts;
    # starts at the center of a stiff mode at rest are admitted, and that
    # mode's coordinate, y1 + y2 here, stays exactly 0 at every step
    refused, (mode, sigma0), admitted = _stiff_rk4_paths()[path]
    with pytest.raises(EnsembleFailureError) as refusal:
        refused()
    assert str(refusal.value) == (
        f"{mode} mode sigma0 = {sigma0} makes the guidance field stiff for rk4 "
        "with step 0.001; use method = rk45"
    )
    if admitted is not None:
        assert np.all(np.asarray(admitted()) == 0.0)


def test_regularization_sweep_validates_widths():
    state = default_state()
    config = default_config()
    with pytest.raises(ValueError):
        regularization_sweep(state, (), 100, 42, config)
    with pytest.raises(ValueError):
        regularization_sweep(state, (0.2, 0.4), 100, 42, config)
    with pytest.raises(ValueError):
        regularization_sweep(state, (0.4, -0.2), 100, 42, config)
