"""Property tests of speed selection across a family of monostable reactions.

f(u) = r*u*(xi - u)*(1 + a*u**2) is monostable with stable zero xi for r > 0
and a >= 0; it enters as the polynomial spec with coefficients
(r*xi, -r, r*a*xi, -r*a).  The examples are drawn deterministically so the
suite stays reproducible.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retreatwave import (
    InputError,
    IntegrationOptions,
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
@given(r=_floats(0.5, 3.0), xi=_floats(0.5, 2.0), a=_floats(0.0, 0.5))
def test_polynomial_reaction_is_numpys_polynomial_bit_for_bit(r, xi, a):
    # Horner's rule in polyval's order; numpy's Polynomial adds only the
    # identity domain map 0.0 + 1.0*u, so values and derivatives agree in
    # every bit, on arrays and on Python floats
    coeffs = (r * xi, -r, r * a * xi, -r * a)
    f = parse_reaction("custom:" + ",".join(repr(c) for c in coeffs))
    poly = np.polynomial.Polynomial((0.0,) + coeffs)
    u = np.concatenate(([0.0, -0.0, xi], np.random.default_rng(0).uniform(-1.0, 3.0 * xi, 100_000)))
    for ours, numpys in ((f, poly), (f.deriv, poly.deriv())):
        assert np.array_equal(ours(u).view(np.int64), numpys(u).view(np.int64))
        scalars = u[:2000].tolist()
        assert all(isinstance(ours(x), float) for x in scalars[:3])
        assert np.array_equal(np.array([ours(x) for x in scalars]).view(np.int64),
                              np.array([numpys(x) for x in scalars]).view(np.int64))
