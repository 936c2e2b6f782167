"""KS statistic, equivariance, constraint surface, regularization sweep."""

import math
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
    evolve_mode,
    ks_statistic,
    normal_cdf,
    observable_normal,
    regularization_sweep,
    sample_equilibrium,
    substream_normals,
)

from _oracles import cdf_sup_distance

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

    monkeypatch.setattr(analysis, "sample_equilibrium", no_sampling)
    with pytest.raises(ValueError, match="times must lie within"):
        equivariance_check(default_state(), 100, 42, default_config(), times)


def test_experiments_reject_single_sample_before_work(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before n was validated")

    monkeypatch.setattr(analysis, "sample_equilibrium", no_sampling)
    monkeypatch.setattr(analysis, "sample_constraint_surface", no_sampling)
    with pytest.raises(ValueError, match="samples must be at least 2"):
        equivariance_check(default_state(), 1, 42, default_config(), [1.0])
    with pytest.raises(ValueError, match="samples must be at least 2"):
        constraint_surface_experiment(default_state(), 1, 42, default_config())


def test_equivariance_check_refuses_stiff_rk4_before_sampling(monkeypatch):
    # sigma_narrow = 0.005: beta = 1e4, so rate * step peaks at 5 for dt = 1e-3
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the rk4 step was checked")

    monkeypatch.setattr(analysis, "sample_equilibrium", no_sampling)
    state = TwoParticleState.from_widths(0.005, 1.0)
    with pytest.raises(EnsembleFailureError, match="step 0.001; use method = rk45"):
        equivariance_check(state, 100, 42, default_config(), [1.0])


def test_equivariance_parallel_width_invariance():
    state = default_state()
    config = IntegratorConfig(dt=5e-3, t_final=1.0)
    a = equivariance_check(state, 2000, 42, config, [1.0], parallel_width=1)
    b = equivariance_check(state, 2000, 42, config, [1.0], parallel_width=8)
    for sa, sb in zip(a[0].observables, b[0].observables):
        assert sa.empirical_std == sb.empirical_std
        assert sa.ks == sb.ks


def test_equivariance_drops_failed_trajectories(monkeypatch):
    # lane 6 of 2000 underflows in the first call, inside the 0.1% failure
    # allowance; the other lanes follow the exact scaling flow, which keeps
    # the test fast
    state = default_state()
    calls = []

    def exact_or_underflow(rhs, u, t0, t1, tolerance, record=False):
        calls.append(t0)
        out = np.empty_like(u)
        for row, mode in enumerate((state.cm_mode, state.rel_mode)):
            start = evolve_mode(mode, state.params, t0)
            end = evolve_mode(mode, state.params, t1)
            out[row] = end.center + (u[row] - start.center) * (end.sigma / start.sigma)
        if len(calls) == 1:
            out[:, 6] = np.nan
        return out, []

    monkeypatch.setattr(dynamics, "_rk45_lanes", exact_or_underflow)
    config = IntegratorConfig(method="rk45", t_final=1.0)
    for times in ([1.0], [0.5, 1.0]):
        calls.clear()
        reports = equivariance_check(state, 2000, 42, config, times)
        assert [report.t for report in reports] == times
        assert len(calls) == len(times)
        for report in reports:
            for stats in report.observables:
                assert stats.n == 1999
                assert math.isfinite(stats.ks)
                assert math.isfinite(stats.empirical_std)
            assert report.max_ks < 1.95 / math.sqrt(1999)


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

    positions = sample_equilibrium(state, 50, seed)
    y1, y2 = positions[:, 0], positions[:, 1]
    expected_values = {"y1": y1, "y2": y2, "y1+y2": y1 + y2, "y1-y2": y1 - y2}
    with mock.patch.object(analysis, "ks_statistic", wraps=ks_statistic) as spy:
        report = analysis._snapshot(state, positions, t)
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


@pytest.mark.parametrize("column", [0, 1])
def test_constraint_surface_nan_map_poisons_max(monkeypatch, column):
    # a NaN in one recorded map (not the final one) must not be skipped
    rk4_maps = dynamics._rk4_maps

    def planted(*args):
        times, a, b = rk4_maps(*args)
        b[3, column] = np.nan
        return times, a, b

    monkeypatch.setattr(dynamics, "_rk4_maps", planted)
    config = IntegratorConfig(dt=1e-2, t_final=0.1)
    report = constraint_surface_experiment(default_state(), 40000, 42, config)
    assert math.isnan(report.max_abs_sum)
    assert math.isfinite(report.sum_width_empirical)


def test_constraint_surface_refuses_stiff_wide_rk4_before_sampling(monkeypatch):
    # sigma_wide = 0.02: rk4 at dt = 1e-3 read diff_width_empirical 92.16
    # against the analytic 100.0 at n = 1e5, 35 standard errors off
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the rk4 step was checked")

    monkeypatch.setattr(analysis, "sample_constraint_surface", no_sampling)
    state = TwoParticleState.from_widths(0.05, 0.02)
    with pytest.raises(EnsembleFailureError, match="wide mode sigma0 = 0.02 .*; lower dt"):
        constraint_surface_experiment(state, 100, 42, default_config())


def test_constraint_surface_refuses_rk45_before_sampling(monkeypatch):
    # recording needs fixed steps, so rk45 is refused before any start is drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the method was checked")

    monkeypatch.setattr(analysis, "sample_constraint_surface", no_sampling)
    config = IntegratorConfig(method="rk45", t_final=2.0)
    with pytest.raises(ValueError, match="method must be 'rk4'.*got 'rk45'"):
        constraint_surface_experiment(default_state(), 100, 42, config)


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


def test_regularization_sweep_difference_orientation():
    state = TwoParticleState.from_widths(0.05, 1.0, correlation="difference")
    result = regularization_sweep(state, (0.5,), 2000, 42, default_config())
    row = result.rows[0]
    row_state = state.with_narrow_sigma(0.5)
    assert row.delta_y_f == pytest.approx(
        constraint_width(row_state, 2.0, "difference"), rel=1e-12
    )
    assert row.delta_y_f_empirical == pytest.approx(row.delta_y_f, rel=0.1)


def test_regularization_sweep_rejects_stiff_rk4(monkeypatch):
    # the guard checks every width before the first row runs: rk4 would
    # print a wrong-physics row, so the sweep fails and names rk45 instead
    state = default_state()
    config = IntegratorConfig(dt=1e-3, t_final=0.05)

    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran before every width was checked")

    monkeypatch.setattr(analysis, "equivariance_check", no_rows)
    with pytest.raises(EnsembleFailureError, match="method = rk45"):
        regularization_sweep(state, (0.4, 0.028), 100, 42, config)
    # the same widths are fine for the adaptive method
    monkeypatch.undo()
    rk45 = IntegratorConfig(method="rk45", t_final=0.05)
    result = regularization_sweep(state, (0.4, 0.028), 100, 42, rk45)
    assert len(result.rows) == 2


def test_regularization_sweep_guard_uses_effective_step():
    # t_final / dt = 1.47 rounds to one rk4 step of 0.05, not 0.034: the
    # guard must judge the step taken (0.5*beta*0.05 = 0.69 > 0.5)
    config = IntegratorConfig(dt=0.034, t_final=0.05)
    with pytest.raises(EnsembleFailureError, match="step 0.05; use method = rk45"):
        regularization_sweep(default_state(), (0.19,), 100, 42, config)


def test_regularization_sweep_validates_widths():
    state = default_state()
    config = default_config()
    with pytest.raises(ValueError):
        regularization_sweep(state, (), 100, 42, config)
    with pytest.raises(ValueError):
        regularization_sweep(state, (0.2, 0.4), 100, 42, config)
    with pytest.raises(ValueError):
        regularization_sweep(state, (0.4, -0.2), 100, 42, config)
