"""Analytic model of an entangled two-particle Gaussian state.

The wavefunction factorizes over center-of-mass and relative coordinates,
Y = (y1 + y2)/2 and y = y1 - y2 (unit-Jacobian change of variables), each
coordinate carrying a freely spreading one-dimensional Gaussian packet.
One combination is prepared narrow, the other wide; which one is narrow is
the correlation orientation. All densities, widths, and velocities used
elsewhere derive from the closed-form evolution implemented here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _require_finite(name, value):
    if isinstance(value, (int, float)):
        finite = math.isfinite(value)
    else:
        finite = np.isfinite(np.asarray(value, dtype=float)).all()
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_integer(name, value, least=None) -> int:
    """value as an int: a Python or numpy integer, not a bool, at least `least` (0 or 1) if given."""
    kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or (least is not None and value < least):
        raise ValueError(f"{name} must be {kind} integer, got {value!r}")
    return int(value)


def _require_positive(name, value):
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Global constants: hbar and the single-particle mass."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            _require_positive(name, getattr(self, name))

    @property
    def cm_mass(self) -> float:
        """Mass attached to the center-of-mass coordinate (2m)."""
        return 2.0 * self.mass

    @property
    def rel_mass(self) -> float:
        """Reduced mass attached to the relative coordinate (m/2)."""
        return 0.5 * self.mass


@dataclass(frozen=True)
class GaussianMode:
    """One freely evolving Gaussian packet in a single mode coordinate.

    Parameters
    ----------
    sigma0 : float
        Initial position-space width (standard deviation of |psi|^2).
    center0 : float
        Initial packet center.
    wavenumber : float
        Carrier wavenumber k; the packet drifts at hbar*k/coord_mass.
    coord_mass : float
        Mass conjugate to this coordinate (2m for the center of mass,
        m/2 for the relative coordinate).
    """

    sigma0: float
    center0: float = 0.0
    wavenumber: float = 0.0
    coord_mass: float = 1.0

    def __post_init__(self):
        for name in ("sigma0", "coord_mass"):
            _require_positive(name, getattr(self, name))
        for name in ("center0", "wavenumber"):
            _require_finite(name, getattr(self, name))


class Correlation(enum.Enum):
    """Which linear combination of y1, y2 is prepared narrow."""

    SUM_NARROW = "sum"
    DIFFERENCE_NARROW = "difference"

    @property
    def narrow_row(self) -> int:
        """The narrow mode's row of (cm, rel): 0 for y1+y2 = 2Y, 1 for y1-y2 = y."""
        return 0 if self is Correlation.SUM_NARROW else 1

    @classmethod
    def from_label(cls, label):
        if isinstance(label, cls):
            return label
        for member in cls:
            if member.value == label:
                return member
        valid = ", ".join(repr(m.value) for m in cls)
        raise ValueError(f"unknown correlation {label!r}; expected one of {valid}")


class EvolvedMode(NamedTuple):
    """A Gaussian mode at the time t given to evolve_mode: its law and its field.

    |psi|^2 is N(center, sigma^2), and the guidance field is affine,
    v(u) = drift + stretch_rate * (u - center): stretch_rate is
    sigma'(t)/sigma(t), the logarithmic spreading rate, and drift the group
    velocity hbar*k/m_c. center, stretch_rate and t are floats or arrays,
    matching t, and beta is the mode's spreading rate; sigma is computed
    only when read, since the integrators read only the field.
    """

    center: float | np.ndarray
    stretch_rate: float | np.ndarray
    drift: float
    sigma0: float
    beta: float
    t: float | np.ndarray

    @property
    def sigma(self):
        """Width of |psi|^2, sigma0 * hypot(1, beta * t), and past the overflow of
        beta * t its limit (hbar / (2 m_c sigma0)) * |t|, as (beta * sigma0) * |t|."""
        if isinstance(self.t, float):
            spread = self.beta * self.t
            if abs(spread) < math.inf:
                return self.sigma0 * math.hypot(1.0, spread)
            return self.beta * self.sigma0 * abs(self.t)
        with np.errstate(over="ignore"):
            spread, late = self.beta * self.t, self.beta * self.sigma0 * np.abs(self.t)
        return np.where(np.isfinite(spread), self.sigma0 * np.hypot(1.0, spread), late)

    def velocity(self, u, out=None):
        """drift + stretch_rate * (u - center): into out if given, else in u's arithmetic."""
        if out is None:
            return (u - self.center) * self.stretch_rate + self.drift
        v = np.subtract(u, self.center, out=out)
        v *= self.stretch_rate
        v += self.drift
        return v


def _spread_rate(mode: GaussianMode, params: PhysicalParams, name: str = "sigma0") -> float:
    """beta = hbar / (2 m_c sigma0^2), the inverse spreading time.

    The one home of the rule that beta is positive and finite: a width too
    small or too large for double precision raises ValueError naming it.
    """
    try:
        beta = params.hbar / (2.0 * mode.coord_mass * mode.sigma0**2)
    except (ZeroDivisionError, OverflowError):
        beta = math.nan
    if not 0.0 < beta < math.inf:
        raise ValueError(
            f"{name} = {mode.sigma0!r} gives a spreading rate hbar/(2 m_c sigma0^2) "
            "that is not positive and finite"
        )
    return beta


def evolve_mode(mode: GaussianMode, params: PhysicalParams, t) -> EvolvedMode:
    """Evolve one Gaussian mode to time t, a finite float or array of times.

    The width follows sigma(t) = sigma0 * sqrt(1 + sf^2), sf = beta * t, and
    the center translates at the group velocity hbar*k/m_c. Every law and
    velocity in the package derives from this one definition; array times
    give elementwise the same bits as scalar calls, sigma apart. The stretch
    rate beta * sf / (1 + sf^2) is taken as beta / (sf + 1 / sf) where that
    form or sf^2 is not finite: past sf^2 = 2^53 that is beta / sf to the
    bit, and a numerator beta * sf past double (beta above about 1e154) is
    avoided. Where sf itself overflows the rate is its limit 1 / t, as sigma
    is (hbar / (2 m_c sigma0)) * |t|. A scalar time takes one form in float
    arithmetic, with no numpy call; array times keep, per time, the first
    form that is finite. A scalar time that is not finite raises
    ValueError. Array times are not checked: the integrators build them
    from finite grids.
    """
    if np.ndim(t) == 0:
        _require_finite("t", t)
        t = float(t)
    beta = _spread_rate(mode, params)
    drift = params.hbar * mode.wavenumber / mode.coord_mass
    if isinstance(t, float):
        sf = beta * t
        square = sf * sf
        rate = beta * sf / (1.0 + square)
        if not (square < math.inf and abs(rate) < math.inf):
            rate = beta / (sf + 1.0 / sf) if abs(sf) < math.inf else 1.0 / t
    else:
        # the later forms are taken only where the first is not finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sf = beta * t
            square = sf * sf
            rate = beta * sf / (1.0 + square)
            first = (square < np.inf) & np.isfinite(rate)
            if not first.all():
                late = np.where(np.isfinite(sf), beta / (sf + 1.0 / sf), 1.0 / t)
                rate = np.where(first, rate, late)
    return EvolvedMode(
        center=mode.center0 + drift * t,
        stretch_rate=rate,
        drift=drift,
        sigma0=mode.sigma0,
        beta=beta,
        t=t,
    )


def mode_density(evolved: EvolvedMode, u, out=None):
    """|amplitude|^2 of an evolved mode: a normal pdf in u, written into out if given.

    The exponent is taken as (z*z) * -0.5 so that one buffer holds every
    stage. Halving is exact, so it has the bits of (-0.5*z) * z wherever
    the square is a normal float; where the square is subnormal both
    exponents give exp = 1, and where it overflows both give exp = 0.
    """
    sigma = evolved.sigma
    z = np.subtract(u, evolved.center, out=out, dtype=float)
    z /= sigma
    z *= z
    z *= -0.5
    density = np.exp(z, out=out)
    density /= sigma * _SQRT_2PI
    return density


@dataclass(frozen=True)
class TwoParticleState:
    """Product of a center-of-mass mode and a relative mode.

    The full wavefunction is psi(y1, y2, t) = psi_cm(Y, t) * psi_rel(y, t)
    with Y = (y1+y2)/2 and y = y1-y2. Mode masses must match the coordinate
    change: coord_mass = 2m for the cm mode and m/2 for the relative mode.
    """

    params: PhysicalParams
    cm_mode: GaussianMode
    rel_mode: GaussianMode
    correlation: Correlation = Correlation.SUM_NARROW

    def __post_init__(self):
        object.__setattr__(self, "correlation", Correlation.from_label(self.correlation))
        expected_cm = self.params.cm_mass
        expected_rel = self.params.rel_mass
        if not math.isclose(self.cm_mode.coord_mass, expected_cm, rel_tol=1e-12):
            raise ValueError(
                f"cm_mode.coord_mass must equal 2*mass = {expected_cm!r}, "
                f"got {self.cm_mode.coord_mass!r}"
            )
        if not math.isclose(self.rel_mode.coord_mass, expected_rel, rel_tol=1e-12):
            raise ValueError(
                f"rel_mode.coord_mass must equal mass/2 = {expected_rel!r}, "
                f"got {self.rel_mode.coord_mass!r}"
            )
        _spread_rate(self.narrow_mode, self.params, "narrow mode sigma0")
        _spread_rate(self.wide_mode, self.params, "wide mode sigma0")

    @classmethod
    def from_widths(
        cls,
        sigma_narrow: float = 0.05,
        sigma_wide: float = 1.0,
        correlation="sum",
        params: PhysicalParams | None = None,
        cm_center: float = 0.0,
        rel_center: float = 0.0,
        cm_wavenumber: float = 0.0,
        rel_wavenumber: float = 0.0,
    ) -> "TwoParticleState":
        """Build a state from the narrow/wide mode widths.

        For sum-narrow states the cm mode gets sigma_narrow and the relative
        mode sigma_wide; difference-narrow swaps them.
        """
        params = params or PhysicalParams()
        correlation = Correlation.from_label(correlation)
        sigma0 = [sigma_wide, sigma_wide]
        sigma0[correlation.narrow_row] = sigma_narrow
        cm = GaussianMode(sigma0[0], cm_center, cm_wavenumber, params.cm_mass)
        rel = GaussianMode(sigma0[1], rel_center, rel_wavenumber, params.rel_mass)
        return cls(params=params, cm_mode=cm, rel_mode=rel, correlation=correlation)

    @property
    def modes(self) -> tuple[GaussianMode, GaussianMode]:
        """(cm, rel): the rows Y and y of a mode-coordinate array."""
        return self.cm_mode, self.rel_mode

    @property
    def narrow_mode(self) -> GaussianMode:
        return self.modes[self.correlation.narrow_row]

    @property
    def wide_mode(self) -> GaussianMode:
        return self.modes[1 - self.correlation.narrow_row]

    def with_narrow_sigma(self, sigma0: float) -> "TwoParticleState":
        """Copy of this state with the narrow mode's initial width replaced."""
        field = ("cm_mode", "rel_mode")[self.correlation.narrow_row]
        return replace(self, **{field: replace(self.narrow_mode, sigma0=sigma0)})

    def at_origin(self) -> "TwoParticleState":
        """This state translated so that both modes start at 0.0, wavenumbers kept.

        Free evolution commutes with translation: each mode coordinate of the
        original is this state's plus its center0, at every time.
        """
        cm, rel = (replace(mode, center0=0.0) for mode in self.modes)
        return replace(self, cm_mode=cm, rel_mode=rel)

    def evolved(self, t) -> tuple[EvolvedMode, EvolvedMode]:
        """(cm, rel) modes at time t, a float or array of times."""
        return tuple(evolve_mode(mode, self.params, t) for mode in self.modes)


def mode_coordinates(y1, y2, out=(None, None)):
    """Map particle positions to (Y, y) = ((y1+y2)/2, y1-y2), into out if given."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    big_y = np.add(y1, y2, out=out[0])
    big_y *= 0.5
    return big_y, np.subtract(y1, y2, out=out[1])


def particle_coordinates(cm, rel, out=(None, None)):
    """Inverse of mode_coordinates: (y1, y2) = (Y + y/2, Y - y/2), into out if given.

    y/2 goes to out[1] first; either out may be rel, but neither may be cm.
    """
    cm = np.asarray(cm, dtype=float)
    rel = np.asarray(rel, dtype=float)
    half = np.multiply(rel, 0.5, out=out[1])
    return np.add(cm, half, out=out[0]), np.subtract(cm, half, out=out[1])


def eval_density(state: TwoParticleState, y1, y2, t: float):
    """|psi|^2 evaluated directly as a product of normal pdfs.

    The (y1, y2) -> (Y, y) change of variables has unit Jacobian, so the
    product of the two mode densities is already normalized over (y1, y2).
    """
    _require_finite("y1", y1)
    _require_finite("y2", y2)
    cm, rel = state.evolved(t)
    big_y, small_y = mode_coordinates(y1, y2)
    return mode_density(cm, big_y) * mode_density(rel, small_y)


def constraint_width(state: TwoParticleState, t: float, which: str = "sum") -> float:
    """Standard deviation of y1+y2 (which='sum') or y1-y2 (which='difference')."""
    return observable_normal(state, t, narrow_observable(Correlation.from_label(which))[0])[1]


# each observable is a*Y + b*y, with y1 = Y + y/2 and y2 = Y - y/2
OBSERVABLES = {
    "y1": (1.0, 0.5),
    "y2": (1.0, -0.5),
    "y1+y2": (2.0, 0.0),
    "y1-y2": (0.0, 1.0),
}


def narrow_observable(correlation: Correlation) -> tuple[str, float]:
    """(name, weight) of the OBSERVABLES entry that reads the narrow mode alone."""
    row = correlation.narrow_row
    return next((name, w[row]) for name, w in OBSERVABLES.items() if w[1 - row] == 0.0)


def observable_normal(state: TwoParticleState, t: float, observable: str):
    """(mean, std) of the named linear observable under |psi|^2 at time t.

    The observable is a*Y + b*y with its OBSERVABLES weights: a combination
    of the independent normal mode coordinates, hence exactly normal at
    every t. A mean or std that double precision cannot hold raises
    ValueError naming the observable and t.
    """
    if observable not in OBSERVABLES:
        raise ValueError(
            f"observable must be one of {tuple(OBSERVABLES)}, got {observable!r}"
        )
    a, b = OBSERVABLES[observable]
    cm, rel = state.evolved(t)
    mean, std = a * cm.center + b * rel.center, math.hypot(a * cm.sigma, b * rel.sigma)
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(
            f"the law of {observable} at t = {t:g} is not finite in double precision"
        )
    return mean, std
