"""Property tests of speed selection across a family of monostable reactions.

f(u) = r*u*(xi - u)*(1 + a*u**2) is monostable with stable zero xi for r > 0
and a >= 0; it enters as the polynomial spec with coefficients
(r*xi, -r, r*a*xi, -r*a).  The examples are drawn deterministically so the
suite stays reproducible.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retreatwave import (
    InputError,
    IntegrationOptions,
    density_sweep,
    find_wave_speed,
    integrate_trajectory,
    make_perturbation_pair,
    parse_reaction,
    perturbed_wave_speeds,
    residual_monotonicity_audit,
    residual_slope,
)
from retreatwave.wavespeed import MIN_DELTA_GAP


def _floats(lo, hi):
    return st.floats(lo, hi, allow_subnormal=False)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(r=_floats(0.5, 3.0), xi=_floats(0.5, 2.0), a=_floats(0.0, 0.5),
       d=_floats(0.5, 2.0), s=_floats(0.05, 2.0))
def test_speed_selection_holds_across_monostable_family(r, xi, a, d, s):
    delta = xi * (1.0 + s)
    f = parse_reaction("custom:" + ",".join(repr(c) for c in (r * xi, -r, r * a * xi, -r * a)))

    audit = residual_monotonicity_audit(d, f, delta, 50)
    assert audit.strictly_decreasing and len(audit.sign_change_cells) == 1
    # proven bounds: r(bracket_low) > 0 and -delta/d <= r'(c) <= -xi/d
    assert audit.residuals[0] > 0.0
    slopes = np.diff(audit.residuals) / np.diff(audit.c_values)
    assert np.all((-delta / d < slopes) & (slopes < -xi / d))

    res = find_wave_speed(d, f, delta)
    assert abs(res.residual) <= 1e-10
    assert res.function_calls == 2  # the start c_s and one speed solve
    # the proven ends c0 = bracket_low and c_up = c0*xi/delta, with r < 0 on
    # [c_up, 0], hold c* and the start c_s
    c_low, c_up = res.bracket
    assert c_low == audit.c_values[0] and c_up == c_low * xi / delta
    assert np.all(audit.residuals[audit.c_values >= c_up] < 0.0)
    assert c_low < 2.0 * c_low * xi / (xi + delta) < c_up
    assert c_low < res.c_star < c_up
    assert -delta / d < residual_slope(res.trajectory, f) < -xi / d
    tight = integrate_trajectory(res.c_star, d, f, delta, IntegrationOptions(rtol=1e-12, atol=1e-14))
    assert abs(tight.endpoint_slope - res.c_star * delta / d) <= 1e-9

    assert find_wave_speed(d, f, 1.1 * delta).retreat_speed > res.retreat_speed

    if make_perturbation_pair(f, 0.05).upper.stable_zero + MIN_DELTA_GAP > delta:
        # the upper member's stable zero passed delta: it has no semi-wave there
        with pytest.raises(InputError, match="of the upper member at epsilon=0.05"):
            perturbed_wave_speeds(d, f, delta, 0.05, c_star_base=res.c_star)
    else:
        pert = perturbed_wave_speeds(d, f, delta, 0.05, c_star_base=res.c_star)
        assert pert.lower.c_star < res.c_star < pert.upper.c_star


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(r=_floats(0.5, 3.0), xi=_floats(0.5, 2.0), a=_floats(0.0, 0.5),
       d=_floats(0.5, 2.0), s=_floats(0.05, 2.0))
def test_sweep_rows_and_pair_members_equal_standalone_searches(r, xi, a, d, s):
    # c* depends on (d, f, delta) alone: a sweep row and a perturbed member
    # are the search of their problem, bit for bit, however they are reached
    f = parse_reaction("custom:" + ",".join(repr(c) for c in (r * xi, -r, r * a * xi, -r * a)))
    deltas = [xi * (1.0 + s * k) for k in (0.25, 0.5, 1.0, 2.0)]
    table = density_sweep(d, f, deltas)
    assert not table.errors
    found = [(res, f, res.delta) for res in table.results]
    pair = make_perturbation_pair(f, 0.05)
    if pair.upper.stable_zero + MIN_DELTA_GAP <= deltas[-1]:
        ps = perturbed_wave_speeds(d, f, deltas[-1], 0.05, c_star_base=table.results[-1].c_star)
        found += [(ps.lower, pair.lower, deltas[-1]), (ps.upper, pair.upper, deltas[-1])]
    for res, fm, delta in found:
        alone = find_wave_speed(d, fm, delta)
        assert (res.c_star, res.iterations) == (alone.c_star, alone.iterations)
        assert np.array_equal(res.trajectory.nodes, alone.trajectory.nodes)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(r=_floats(0.5, 3.0), xi=_floats(0.5, 2.0), a=_floats(0.0, 0.5))
def test_polynomial_reaction_meets_horners_error_bound(r, xi, a):
    # Horner's rule on a polynomial of degree n is within gamma(2n) of
    # sum_k |c_k| |u|**k of its exact value (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., eq. 5.3), here against rational
    # arithmetic, on arrays and on Python floats alike.  The derivative's
    # coefficients k*c_k carry one rounding more: gamma(2n - 1) for degree n - 1
    coeffs = (r * xi, -r, r * a * xi, -r * a)
    f = parse_reaction("custom:" + ",".join(repr(c) for c in coeffs))
    exact = [Fraction(0)] + [Fraction(c) for c in coeffs]
    derivative = [k * c for k, c in enumerate(exact)][1:]
    u = np.concatenate(([0.0, -0.0, xi], np.random.default_rng(0).uniform(-1.0, 3.0 * xi, 150)))
    for ours, poly, roundings in ((f, exact, 8), (f.deriv, derivative, 7)):
        assert all(isinstance(ours(x), float) for x in u[:3].tolist())
        for value, scalar, x in zip(ours(u).tolist(), map(ours, u.tolist()), u.tolist()):
            t = Fraction(x)
            bound = 2.0**-53 * roundings / (1.0 - 2.0**-53 * roundings) * float(
                sum(abs(c) * abs(t) ** k for k, c in enumerate(poly)))
            assert value == scalar  # one rule for arrays and floats
            assert abs(Fraction(value) - sum(c * t**k for k, c in enumerate(poly))) <= bound, x
