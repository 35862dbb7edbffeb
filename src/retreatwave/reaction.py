"""Monostable reaction terms and their sandwiching perturbations.

A reaction f is monostable when f(0) = f(z) = 0 for a single positive zero z,
f > 0 on (0, z), f < 0 beyond z, and f'(0) > 0 > f'(z).  Everything downstream
touches f only through point evaluation, the first derivative and the location
of the stable zero, so :class:`ReactionFunction` is a thin bundle of callables.
Evaluators must accept floats and numpy arrays alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, PerturbationError

__all__ = [
    "ReactionFunction",
    "PerturbationPair",
    "MonostabilityReport",
    "make_logistic",
    "make_polynomial",
    "make_perturbation_pair",
    "validate_monostable",
    "parse_reaction",
]

# A cap on the halvings of a scan cell [a, b] in _locate_stable_zero.  Every
# cell has b - a <= a, fewer than 2**53 spacings of a, so about 54 halvings
# reach adjacent doubles; the cap only bounds the loop.
MAX_BISECTIONS = 64
# Intervals of the sampling grid on [0, 2*stable_zero] in validate_monostable.
VALIDATION_GRID = 2000


@dataclass(frozen=True)
class ReactionFunction:
    """A growth law f(u) bundled with its derivative and stable zero.

    Instances are immutable and safe to share across workers.
    """

    value_fn: Callable = field(repr=False)
    deriv_fn: Callable = field(repr=False)
    stable_zero: float
    label: str

    def __call__(self, u):
        return self.value_fn(u)

    def deriv(self, u):
        return self.deriv_fn(u)


@dataclass(frozen=True)
class PerturbationPair:
    """Reactions sandwiching a base f: lower < f < upper pointwise for u > 0.

    The lower member has its stable zero below the base zero, the upper member
    above it, and both tend to the base in C1 on [0, 2*delta] as epsilon -> 0.
    """

    lower: ReactionFunction
    upper: ReactionFunction


@dataclass(frozen=True)
class MonostabilityReport:
    """Outcome of sampling-based monostability validation."""

    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _number_text(x: float) -> str:
    """The shortest text that parses back to x, without a trailing '.0'."""
    return repr(x).removesuffix(".0")


def make_logistic(r: float) -> ReactionFunction:
    """Logistic growth f(u) = r*u*(1-u), the canonical monostable reaction."""
    if not 0 < r < np.inf:
        raise InputError(f"logistic rate must be positive and finite, got {r}")
    r = float(r)
    return ReactionFunction(
        value_fn=lambda u: r * u * (1.0 - u),
        deriv_fn=lambda u: r * (1.0 - 2.0 * u),
        stable_zero=1.0,
        label=f"logistic:r={_number_text(r)}",
    )


def make_polynomial(coeffs: tuple[float, ...]) -> ReactionFunction:
    """Reaction f(u) = c1*u + c2*u**2 + ... with no constant term.

    The stable zero is located by a sign scan on (0, 20], dense above 0.005,
    continued geometrically to the Cauchy root bound, so with a negative leading
    coefficient f is negative on all of (stable_zero, inf).  The result is
    validated for monostability; an inadmissible polynomial is rejected.
    """
    cs = tuple(float(c) for c in coeffs)
    lead = next((c for c in reversed(cs) if c != 0.0), 0.0)
    if not lead < 0.0:
        raise InputError("polynomial reaction needs a negative leading coefficient")
    bound = 1.0 + max(map(abs, cs)) / -lead  # Cauchy bound on the roots
    if not np.isfinite(bound):
        raise InputError(f"polynomial root bound {bound} is not finite; coefficients {cs}")
    poly = np.polynomial.Polynomial((0.0,) + cs)
    value = _horner(poly.coef)
    try:
        zero = _locate_stable_zero(value, hi=20.0, tail_to=bound)
    except PerturbationError as exc:
        raise InputError(f"polynomial reaction is not monostable: {exc}") from exc
    f = ReactionFunction(
        value_fn=value,
        deriv_fn=_horner(poly.deriv().coef),
        stable_zero=zero,
        label="custom:" + ",".join(map(_number_text, cs)),
    )
    report = validate_monostable(f)
    if not report.ok:
        raise InputError(
            "polynomial reaction is not monostable: " + "; ".join(report.failures)
        )
    return f


def _horner(coef) -> Callable:
    """The power series coef (lowest power first) by Horner's rule.

    Degree n takes n multiplications and n additions, so a value is within
    gamma_2n * sum_k |coef[k]| * |u|**k of the exact one (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., eq. 5.3).  Arrays and
    Python floats take the same operations; a float gives a Python float.
    """
    lead, *rest = (float(c) for c in reversed(coef))

    def value(u):
        acc = lead + u * 0.0
        for c in rest:
            acc = c + acc * u
        return acc

    return value


def _locate_stable_zero(fn: Callable, hi: float, tail_to: float = 0.0) -> float:
    """Find the positive zero where fn changes sign from + to -.

    Scans a dense grid on (0, hi], led by a geometric one down to 1e-12 of
    its first point for a zero below that point, and a geometric one on
    (hi, tail_to], for down-crossings and requires exactly one.  Its cell is
    bisected, keeping fn > 0 at the lower end and fn <= 0 at the upper, until
    the midpoint rounds to an end: the ends are then adjacent doubles, at any
    scale, and the one with the smaller |fn| is returned, the lower on a tie.
    """
    grid = np.linspace(0.0, hi, 4001)[1:]
    grid = np.concatenate((np.geomspace(1e-12 * grid[0], grid[0], 241)[:-1], grid))
    if tail_to > hi:
        grid = np.concatenate((grid, np.geomspace(hi, tail_to, 4001)[1:]))
    # tail_to reaches 1e200 for a tiny leading coefficient; overflow keeps the sign
    with np.errstate(over="ignore"):
        vals = np.asarray(fn(grid), dtype=float)
    signs = np.sign(vals)
    down = np.nonzero((signs[:-1] > 0) & (signs[1:] < 0))[0]
    exact = np.nonzero(vals == 0.0)[0]
    if len(down) + len(exact) != 1:
        raise PerturbationError(
            f"expected exactly one +/- sign change of the reaction on (0, {grid[-1]:g}], "
            f"found {len(down)} crossings and {len(exact)} exact zeros"
        )
    if len(exact) == 1:
        return float(grid[exact[0]])
    a, b = float(grid[down[0]]), float(grid[down[0] + 1])
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if fn(mid) > 0.0:
            a = mid
        else:
            b = mid
    return b if abs(float(fn(b))) < abs(float(fn(a))) else a


def make_perturbation_pair(base: ReactionFunction, epsilon: float) -> PerturbationPair:
    """Build sandwiching reactions (lower < base < upper) for a given epsilon.

    The members are the additive family base(u) -/+ eps*u*exp(-u/s) with the
    decay length s = max(1, xi), the scale of the stable zero xi: near 2*xi
    the bump then stays far above one rounding of base, for every base, and
    a base with xi <= 1 keeps s = 1 and its bits.  The members' stable zeros
    are re-located by bisection and both members are validated for
    monostability; an epsilon that breaks monostability is rejected with the
    validator's diagnostics.
    """
    xi = base.stable_zero
    if not 0.0 < epsilon < min(1.0, xi) / 2.0:
        raise InputError(
            f"epsilon must lie in (0, {min(1.0, xi) / 2.0:g}), got {epsilon}"
        )
    lower = _additive_member(base, -epsilon, "lower")
    upper = _additive_member(base, +epsilon, "upper")
    for member in (lower, upper):
        report = validate_monostable(member)
        if not report.ok:
            raise PerturbationError(
                f"epsilon={epsilon:g} breaks monostability of {member.label}: "
                + "; ".join(report.failures)
            )
    u = np.linspace(0.0, 2.0 * max(xi, upper.stable_zero), 1001)[1:]
    if not (np.all(lower(u) < base(u)) and np.all(base(u) < upper(u))):
        raise PerturbationError("perturbation pair is not strictly sandwiching")
    return PerturbationPair(lower=lower, upper=upper)


def _exp(u):
    """exp(u), by math.exp for a float: the per-call RHS of an integration then
    does no numpy scalar arithmetic."""
    return math.exp(u) if isinstance(u, float) else np.exp(u)


def _additive_member(base: ReactionFunction, eps: float, tag: str) -> ReactionFunction:
    value = base.value_fn  # bound once: a call makes no frame for base.__call__
    s = max(1.0, base.stable_zero)  # u / 1.0 is u, so s = 1 keeps every bit
    fn = lambda u: value(u) + eps * u * _exp(-u / s)
    dfn = lambda u: base.deriv(u) + eps * (1.0 - u / s) * _exp(-u / s)
    zero = _locate_stable_zero(fn, hi=2.0 * base.stable_zero)
    return ReactionFunction(
        value_fn=fn,
        deriv_fn=dfn,
        stable_zero=zero,
        label=f"{base.label}|{tag}:eps={abs(eps):g}",
    )


def validate_monostable(f: ReactionFunction) -> MonostabilityReport:
    """Sample f on VALIDATION_GRID intervals of [0, 2*stable_zero] and report violations.

    Checks the zeros at 0 and at the stable zero, the sign pattern on either
    side of the stable zero, the derivative signs at both zeros, and the
    consistency of ``deriv`` against a central finite difference of the
    evaluator (relative error at most 1e-6).
    """
    xi = f.stable_zero
    failures: list[str] = []
    u = np.linspace(0.0, 2.0 * xi, VALIDATION_GRID + 1)
    vals = np.asarray(f(u), dtype=float)
    scale = max(1.0, float(np.max(np.abs(vals))))

    if abs(float(f(0.0))) > 1e-14 * scale:
        failures.append(f"f(0) = {float(f(0.0)):.3e} is not zero")
    if abs(float(f(xi))) > 1e-14 * scale:
        failures.append(f"f(stable_zero) = {float(f(xi)):.3e} is not zero")

    guard = 1e-9 * xi
    inner = (u > guard) & (u < xi - guard)
    outer = (u > xi + guard)
    if np.any(vals[inner] <= 0.0):
        failures.append(f"sign violation in (0, {xi:g}): f must be positive there")
    if np.any(vals[outer] >= 0.0):
        failures.append(f"sign violation in ({xi:g}, {2 * xi:g}]: f must be negative there")

    if not float(f.deriv(0.0)) > 0.0:
        failures.append(f"f'(0) = {float(f.deriv(0.0)):.3e} is not positive")
    if not float(f.deriv(xi)) < 0.0:
        failures.append(f"f'(stable_zero) = {float(f.deriv(xi)):.3e} is not negative")

    h = 6e-6 * max(1.0, xi)
    ucheck = u[1:-1]
    fd = (np.asarray(f(ucheck + h)) - np.asarray(f(ucheck - h))) / (2.0 * h)
    dv = np.asarray(f.deriv(ucheck), dtype=float)
    rel = np.abs(dv - fd) / np.maximum(1.0, np.abs(dv))
    if np.any(rel > 1e-6):
        worst = float(np.max(rel))
        failures.append(f"deriv disagrees with central difference (max rel err {worst:.2e})")

    return MonostabilityReport(failures=tuple(failures))


def parse_reaction(text: str) -> ReactionFunction:
    """Build a reaction from its selection string.

    Grammar (documented in the CLI help as well)::

        logistic            -> logistic with r = 1
        logistic:r=<R>      -> logistic with rate R
        custom:<c1>,<c2>,.. -> polynomial c1*u + c2*u**2 + ...
    """
    text = text.strip()
    if text == "logistic":
        return make_logistic(1.0)
    if text.startswith("logistic:"):
        spec = text[len("logistic:"):]
        if not spec.startswith("r="):
            raise InputError(f"malformed logistic spec {text!r}, expected logistic:r=<value>")
        try:
            rate = float(spec[2:])
        except ValueError as exc:
            raise InputError(f"malformed logistic rate in {text!r}") from exc
        return make_logistic(rate)
    if text.startswith("custom:"):
        body = text[len("custom:"):]
        try:
            coeffs = tuple(float(part) for part in body.split(","))
        except ValueError as exc:
            raise InputError(f"malformed polynomial coefficients in {text!r}") from exc
        return make_polynomial(coeffs)
    raise InputError(
        f"unknown reaction spec {text!r}; use 'logistic[:r=R]' or 'custom:c1,c2,...'"
    )
