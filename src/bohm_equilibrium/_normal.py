"""Standard normal CDF and its inverse in numpy.

Ports of the Cephes rational approximations ndtr (through erf and erfc) and
ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989).
They keep the C code's operation order and branch edges; exp and log are
numpy's, so a value may differ from the C library's by a few ulps. ndtri
takes values of any shape and order; the CDF kernel _ndtr_sorted takes only
a 1-D array in increasing order, NaN last, as ks_statistic hands it one: a
few thousand values, so each band is one call on new arrays, and the input
is left as it was.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

# ndtri: |p - 0.5| <= 3/8 (P0/Q0); sqrt(-2 log p) in [2, 8) (P1/Q1) and >= 8 (P2/Q2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# erf on |x| <= 1 (T/U); erfc on [1, 8) (P/Q) and [8, inf) (R/S)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # erfc(z) is 0 once z * z > _MAXLOG


def _underflow_edge() -> float:
    """The smallest double z with z * z > _MAXLOG."""
    edge = math.sqrt(_MAXLOG)
    while edge * edge > _MAXLOG:
        edge = math.nextafter(edge, 0.0)
    while edge * edge <= _MAXLOG:
        edge = math.nextafter(edge, math.inf)
    return edge


def _polevl(x, coef):
    """coef[0] * x**N + ... + coef[N] by Horner's rule."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """_polevl with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def ndtri(p):
    """Inverse of the standard normal CDF, elementwise; ndtri(0) = -inf, ndtri(1) = inf.

    The central polynomial runs over every value, the log tail only over
    p <= exp(-2) and p > 1 - exp(-2).
    """
    p = np.asarray(p, dtype=float)
    shape, p = p.shape, p.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN outside [0, 1], silently
        y = p - 0.5
        y2 = y * y
        out = _polevl(y2, _P0)
        out *= y2
        out /= _p1evl(y2, _Q0)
        out *= y
        out += y
        out *= _S2PI
        tail = np.flatnonzero((p <= _EXP_M2) | (p > 1.0 - _EXP_M2))
        p_tail = p[tail]
        y = np.minimum(p_tail, 1.0 - p_tail)
        x = np.sqrt(-2.0 * np.log(y))
        x0 = x - np.log(x) / x
        z = 1.0 / x
        x1 = _polevl(z, _P1)
        x1 *= z
        x1 /= _p1evl(z, _Q1)
        far = np.flatnonzero(x >= 8.0)  # p < exp(-32)
        z = z[far]
        x1[far] = _polevl(z, _P2) * z / _p1evl(z, _Q2)
        x0 -= x1
        x0[y == 0.0] = np.inf
        out[tail] = np.copysign(x0, p_tail - 0.5)
    return out.reshape(shape)


def _half_erfc_by_erf(z):
    """erfc(z) / 2 as (1 - erf(z)) / 2, for 1/sqrt(2) <= z < 1."""
    z2 = z * z
    return (1.0 - _polevl(z2, _T) * z / _p1evl(z2, _U)) * 0.5


def _half_erfc(z, p, q):
    """erfc(z) / 2 by its exp(-z^2) rational form, for 1 <= z < _UNDERFLOW."""
    return np.exp(-z * z) * _polevl(z, p) / _p1evl(z, q) * 0.5


_UNDERFLOW = _underflow_edge()
_EDGES = np.array([_SQRT1_2, 1.0, 8.0, _UNDERFLOW])
_HALF_ERFC = (_half_erfc_by_erf, partial(_half_erfc, p=_P, q=_Q), partial(_half_erfc, p=_R, q=_S))


def _ndtr_sorted(x):
    """ndtr of sqrt(2) * x for a 1-D x in increasing order, NaN last.

    x is not written. Each branch runs in one call, with the operations of Cephes' erf and
    erfc in their order: erf on the central slice, and erfc / 2 of each band
    on its negated negative values followed by its positive ones.
    """
    out = np.empty_like(x)
    # band k holds _EDGES[k] <= |x| < _EDGES[k + 1]; NaN sorts last
    neg = np.searchsorted(x, -_EDGES, "right")
    pos = np.searchsorted(x, _EDGES, "left")
    end = np.searchsorted(x, np.inf, "right")
    out[: neg[-1]] = 0.0
    out[pos[-1] : end] = 1.0
    out[end:] = np.nan
    lo, hi = neg[0], pos[0]
    if lo < hi:  # a call on a few sorted blocks leaves most bands empty
        central = x[lo:hi]
        x2 = central * central
        out[lo:hi] = _polevl(x2, _T) * central / _p1evl(x2, _U) * 0.5 + 0.5
    for k, half_erfc in enumerate(_HALF_ERFC):
        below, above = slice(neg[k + 1], neg[k]), slice(pos[k], pos[k + 1])
        n_below = neg[k] - neg[k + 1]
        if n_below or pos[k] < pos[k + 1]:
            h = half_erfc(np.concatenate([-x[below], x[above]]))
            out[below] = h[:n_below]
            out[above] = 1.0 - h[n_below:]
    return out
