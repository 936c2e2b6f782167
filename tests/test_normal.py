"""The numpy ports of ndtri and ndtr against scipy.special as the oracle.

The ndtr kernel takes only ascending input, NaN last, so every CDF here is
called on sorted values; normal_cdf(0.0, 1.0) is ndtr to the bit, since
x - 0.0 and x / 1.0 are exact.
"""

import math

import numpy as np
import scipy.special

from bohm_equilibrium import _normal
from bohm_equilibrium._normal import _ndtr_sorted, ndtri
from bohm_equilibrium.analysis import normal_cdf
from bohm_equilibrium.dynamics import substream_uniforms

from _oracles import ndtr_reference

ndtr = normal_cdf(0.0, 1.0)

# numpy's exp and log differ from the C library's in the last bits, so the
# ports agree with scipy to a few ulps (at most 4 seen), not always to the bit
ULPS = 8
TINY = 1e-300  # below it the bound is absolute: ULPS spacings of 1e-300


def assert_within_ulps(ours, reference):
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert ours.shape == reference.shape
    finite = np.isfinite(reference)
    assert np.array_equal(ours[~finite], reference[~finite], equal_nan=True)
    tolerance = ULPS * np.spacing(np.maximum(np.abs(reference[finite]), TINY))
    assert np.all(np.abs(ours[finite] - reference[finite]) <= tolerance)


def test_ndtri_matches_scipy_on_philox_uniforms():
    u = substream_uniforms(4101, 0, 250_000)
    assert_within_ulps(ndtri(u), scipy.special.ndtri(u))
    # the zero word converts to 2**-54; the largest ones to 1 - 2**-54,
    # which rounds to 1.0 in double precision
    edges = np.array([2.0**-54, 1.0 - 2.0**-53, 1.0 - 2.0**-54, 0.5, math.exp(-2.0)])
    edges = np.concatenate([edges, 1.0 - edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    assert_within_ulps(ndtri(edges), scipy.special.ndtri(edges))


def test_ndtri_matches_scipy_in_the_far_tails():
    # p below exp(-32) takes the third rational form
    p = np.exp(-np.random.default_rng(7).uniform(0.0, 745.0, 100_000))
    p = np.concatenate([p, 1.0 - p[:50_000], [5e-324, 1e-300, 1.2664165549e-14]])
    assert_within_ulps(ndtri(p), scipy.special.ndtri(p))


def test_ndtri_special_values():
    assert ndtri(0.0) == -np.inf
    assert ndtri(1.0) == np.inf
    assert ndtri(0.5) == 0.0
    assert np.all(np.isnan(ndtri(np.array([np.nan, -0.1, 1.1, -np.inf, np.inf]))))


def _branch_edges():
    """Arguments a within 3 ulps of each edge |a| / sqrt(2) = 1/sqrt(2), 1, 8, sqrt(MAXLOG)."""
    return _within_3_ulps(
        [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2)]
    )


def _within_3_ulps(centers):
    """Each center, the 3 doubles on either side of it, and their negations."""
    values = []
    for center in centers:
        below = above = float(center)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
        values.append(center)
    values = np.array(values)
    return np.concatenate([values, -values])


def test_ndtr_matches_scipy():
    rng = np.random.default_rng(11)
    x = np.concatenate(
        [
            rng.standard_normal(500_000),
            rng.uniform(-40.0, 40.0, 500_000),
            np.linspace(-40.0, 40.0, 160_001),
            _branch_edges(),
            [0.0, -0.0, 5e-324, -5e-324],
        ]
    )
    x.sort()
    assert_within_ulps(ndtr(x), scipy.special.ndtr(x))


def test_ndtr_special_values():
    assert ndtr(np.array([np.inf]))[0] == 1.0
    assert ndtr(np.array([-np.inf]))[0] == 0.0
    assert ndtr(np.array([0.0]))[0] == 0.5
    assert np.isnan(ndtr(np.array([np.nan]))[0])
    x = np.array([-np.inf, -2.0, 1.0, np.inf, np.nan, np.nan])
    assert np.array_equal(ndtr(x), scipy.special.ndtr(x), equal_nan=True)


def _saturating_and_edge_values():
    """Branch edges, both zeros, subnormals, the saturated bands and NaN."""
    edges = _branch_edges()
    far = np.array([37.5, 38.0, 40.0, 1e10, 1e300, np.inf])
    return np.concatenate(
        [edges, far, -far, [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, np.nan]]
    )


def test_ndtr_kernel_matches_whole_array_reference_bitwise():
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [
            rng.standard_normal(100_000),
            rng.uniform(-40.0, 40.0, 20_000),
            _saturating_and_edge_values(),
        ]
    )
    x.sort()
    assert ndtr(x).tobytes() == ndtr_reference(x).tobytes()


def test_normal_cdf_matches_reference_bitwise():
    rng = np.random.default_rng(9)
    x = np.concatenate([3.0 * rng.standard_normal(50_000), 2.0 * _saturating_and_edge_values()])
    x.sort()
    before = x.tobytes()
    reference = ndtr_reference((x - 0.5) / 2.0)
    assert normal_cdf(0.5, 2.0)(x).tobytes() == reference.tobytes()
    assert x.tobytes() == before


def test_cdf_does_not_write_its_input():
    # values inside every band and 3 ulps around each edge, of both signs,
    # with the saturated ends, both zeros and NaN
    inner = np.array([0.3, 0.9, 4.0, 20.0, 30.0, np.inf])
    x = np.concatenate([_within_3_ulps(_normal._EDGES), inner, -inner, [0.0, -0.0, np.nan]])
    x.sort()
    before = x.tobytes()
    _ndtr_sorted(x)
    assert x.tobytes() == before
    for cdf in (ndtr, normal_cdf(0.5, 2.0)):
        cdf(x)
        assert x.tobytes() == before


def test_sorted_kernel_bits_do_not_depend_on_neighbours_or_length():
    # the kernel's arguments x = a / sqrt(2): 3 ulps around each branch edge,
    # the saturated bands out to inf, both zeros, subnormals and NaN
    rng = np.random.default_rng(13)
    far = np.array([27.0, 30.0, 1e10, 1e300, np.inf])
    x = np.concatenate(
        [
            _within_3_ulps(_normal._EDGES),
            far,
            -far,
            [0.0, -0.0, 5e-324, -5e-324, np.nan, np.nan],
            rng.standard_normal(600),
            rng.uniform(-30.0, 30.0, 200),
        ]
    )
    x.sort()
    full = _ndtr_sorted(x.copy())
    for case in range(400):
        if case % 2:
            # a short contiguous run at an odd offset, kept inside a larger
            # buffer so that it starts off the buffer's alignment
            length, offset = 1 + case // 2 % 70, 2 * rng.integers(x.size // 2 - 35) + 1
            picked = np.arange(offset, offset + length)
            values = x.copy()[offset : offset + length]
        else:
            picked = np.sort(rng.choice(x.size, rng.integers(1, 200), replace=False))
            values = x[picked]
        assert _ndtr_sorted(values).tobytes() == full[picked].tobytes(), case
