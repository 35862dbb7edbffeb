import math

import numpy as np
import pytest

from retreatwave import (
    InputError,
    PerturbationError,
    ReactionFunction,
    find_wave_speed,
    make_logistic,
    make_perturbation_pair,
    make_polynomial,
    parse_reaction,
    validate_monostable,
)
from retreatwave import reaction
from retreatwave.wavespeed import DEFAULT_TOL


def test_logistic_values():
    f = make_logistic(1.0)
    assert f(0.5) == pytest.approx(0.25, abs=1e-15)
    assert f(1.0) == 0.0
    assert f.deriv(1.0) == -1.0
    assert f.deriv(0.0) == 1.0
    assert f.stable_zero == 1.0
    f2 = make_logistic(2.0)
    assert f2(2.0) == pytest.approx(-4.0, abs=1e-15)


def test_logistic_rejects_nonpositive_rate():
    with pytest.raises(InputError):
        make_logistic(0.0)
    with pytest.raises(InputError):
        make_logistic(-1.0)


def test_logistic_accepts_arrays():
    f = make_logistic(1.5)
    u = np.linspace(0.0, 2.0, 7)
    np.testing.assert_allclose(f(u), 1.5 * u * (1 - u), rtol=1e-15)
    np.testing.assert_allclose(f.deriv(u), 1.5 * (1 - 2 * u), rtol=1e-15)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0])
def test_validate_passes_logistic_family(r):
    report = validate_monostable(make_logistic(r))
    assert report.ok, report.failures


def test_validate_rejects_bistable():
    g = ReactionFunction(
        value_fn=lambda u: u * (1 - u) * (u - 0.3),
        deriv_fn=lambda u: (1 - u) * (u - 0.3) + u * (-(u - 0.3) + (1 - u)),
        stable_zero=1.0,
        label="bistable",
    )
    report = validate_monostable(g)
    assert not report.ok
    assert any("sign violation in (0" in msg for msg in report.failures)


def test_validate_rejects_corrupted_derivative():
    base = make_logistic(1.0)
    g = ReactionFunction(
        value_fn=base.value_fn,
        deriv_fn=lambda u: 1.1 * base.deriv(u),
        stable_zero=1.0,
        label="corrupted",
    )
    report = validate_monostable(g)
    assert not report.ok
    assert any("central difference" in msg for msg in report.failures)


@pytest.mark.parametrize("factors, failure", [
    # u*(1 - u) + 1e-3*(1 - u): f(0) = 1e-3
    ([(1e-3, 1.0), (1.0, -1.0)], "f(0) = 1.000e-03 is not zero"),
    # u*(1.001 - u): the declared stable zero 1 is not a zero
    ([(0.0, 1.0), (1.001, -1.0)], "f(stable_zero) = 1.000e-03 is not zero"),
    # u*(1 - u)*(1.5 - u): positive again past 1.5
    ([(0.0, 1.0), (1.0, -1.0), (1.5, -1.0)],
     "sign violation in (1, 2]: f must be negative there"),
    # u*(1 - u)**3: a zero of f' at the stable zero
    ([(0.0, 1.0)] + [(1.0, -1.0)] * 3, "f'(stable_zero) = 0.000e+00 is not negative"),
])
def test_validate_names_each_violation(factors, failure):
    # f is the product of the linear factors, with stable zero 1 declared;
    # each breaks one condition, and the report names that one alone
    p = np.polynomial.Polynomial([1.0])
    for factor in factors:
        p = p * np.polynomial.Polynomial(factor)
    report = validate_monostable(ReactionFunction(p, p.deriv(), 1.0, "hand-built"))
    assert report.failures == (failure,)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_pair_sandwich_on_dense_grid(eps):
    # the additive family on logistic bases of several rates
    delta = 2.0
    u = np.linspace(0.0, 2.0 * delta, 10_001)[1:]
    for r in (0.5, 1.0, 2.0, 5.0):
        f = make_logistic(r)
        pair = make_perturbation_pair(f, eps)
        assert np.all(pair.lower(u) < f(u))
        assert np.all(f(u) < pair.upper(u))
        assert pair.lower.stable_zero < 1.0 < pair.upper.stable_zero
        assert abs(pair.lower.stable_zero - 1.0) <= 1.5 * eps
        assert abs(pair.upper.stable_zero - 1.0) <= 1.5 * eps
        for member in (pair.lower, pair.upper):
            assert validate_monostable(member).ok


def test_pair_c1_distance_shrinks_with_eps():
    f = make_logistic(1.0)
    delta = 2.0
    u = np.linspace(0.0, 2.0 * delta, 4001)
    dists = []
    for eps in (0.1, 0.05, 0.025):
        pair = make_perturbation_pair(f, eps)
        d0 = max(
            np.max(np.abs(pair.lower(u) - f(u))),
            np.max(np.abs(pair.upper(u) - f(u))),
        )
        d1 = max(
            np.max(np.abs(pair.lower.deriv(u) - f.deriv(u))),
            np.max(np.abs(pair.upper.deriv(u) - f.deriv(u))),
        )
        dists.append(d0 + d1)
    assert dists[0] > dists[1] > dists[2]


def test_pair_rejects_large_epsilon():
    f = make_logistic(1.0)
    with pytest.raises((InputError, PerturbationError)):
        make_perturbation_pair(f, 0.6)
    with pytest.raises(InputError):
        make_perturbation_pair(f, 0.0)


def test_pair_generic_family_on_polynomial_base():
    base = make_polynomial((1.0, -1.0))
    pair = make_perturbation_pair(base, 0.05)
    u = np.linspace(0.0, 4.0, 2001)[1:]
    assert np.all(pair.lower(u) < base(u))
    assert np.all(base(u) < pair.upper(u))
    assert pair.lower.stable_zero < 1.0 < pair.upper.stable_zero
    for member in (pair.lower, pair.upper):
        assert validate_monostable(member).ok


@pytest.mark.parametrize("base", [make_logistic(1.0), make_polynomial((1.0, -1.0))],
                         ids=["logistic", "polynomial"])
def test_pair_members_take_python_floats(base):
    # a float stays a Python float through the member, as the reference
    # integrator's right-hand side calls it, and agrees with the array value
    pair = make_perturbation_pair(base, 0.05)
    u = np.linspace(0.05, 3.0, 60)
    for member in (pair.lower, pair.upper):
        for fn in (member, member.deriv):
            at_array = fn(u)
            for k, x in enumerate(u.tolist()):
                value = fn(x)
                assert type(value) is float
                assert abs(value - at_array[k]) <= np.spacing(abs(at_array[k]))


def test_pair_members_validate(logistic1):
    pair = make_perturbation_pair(logistic1, 0.1)
    assert validate_monostable(pair.lower).ok
    assert validate_monostable(pair.upper).ok


def test_polynomial_rejects_bistable_coefficients():
    # u*(u - 0.3)*(1 - u) expanded: -0.3*u + 1.3*u^2 - u^3
    with pytest.raises((InputError, PerturbationError)):
        make_polynomial((-0.3, 1.3, -1.0))


@pytest.mark.parametrize("coeffs", [(1.0, -1.0, -1e-4), (25.0, -1.0), (0.5, 0.0, -2.0)])
def test_polynomial_stable_zero_is_the_positive_root(coeffs):
    # the scan is dense on (0, 20] and reaches the root bound beyond it
    roots = np.polynomial.Polynomial(coeffs).roots()
    root = max(float(r.real) for r in roots if abs(r.imag) < 1e-12)
    assert make_polynomial(coeffs).stable_zero == pytest.approx(root, abs=1e-10)


def test_stable_zero_beyond_the_absolute_tolerance():
    # the spacing of doubles near 10000 exceeds the bisection tolerance 1e-12
    xi = make_polynomial((10000.0, -1.0)).stable_zero
    assert abs(xi - 10000.0) <= np.spacing(10000.0)


@pytest.mark.parametrize("xi", [0.001, 1e-6])
def test_stable_zero_below_the_first_dense_scan_point(xi):
    # the dense scan starts at 20/4000 = 0.005; the geometric scan below it
    # finds these zeros, and the reaction passes the validator and has a speed
    f = parse_reaction(f"custom:{xi!r},-1")
    _assert_nearer_of_adjacent_doubles(f)
    assert validate_monostable(f).ok
    res = find_wave_speed(1.0, f, 2.0 * xi)
    assert res.bracket[0] < res.c_star < res.bracket[1] and res.residual <= DEFAULT_TOL


@pytest.mark.parametrize(
    "spec, label",
    [("logistic", "logistic:r=1"), ("logistic:r=1.0000001", "logistic:r=1.0000001"),
     ("custom:1,-1", "custom:1,-1"), ("custom:0.7,-1", "custom:0.7,-1"),
     ("custom:1.00000001,-1,-1e-4", "custom:1.00000001,-1,-0.0001")],
)
def test_label_rebuilds_the_reaction(spec, label):
    f = parse_reaction(spec)
    assert f.label == label
    u = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(parse_reaction(f.label)(u), f(u))


def test_parse_reaction_grammar():
    assert parse_reaction("logistic").label == "logistic:r=1"
    assert parse_reaction("logistic:r=2.5")(0.5) == pytest.approx(2.5 * 0.25)
    poly = parse_reaction("custom:1,-1")
    assert poly(0.5) == pytest.approx(0.25)
    assert poly.stable_zero == pytest.approx(1.0, abs=1e-9)
    for bad in ("logistic:k=2", "logistic:r=abc", "custom:1,zz", "sine"):
        with pytest.raises(InputError):
            parse_reaction(bad)


ZERO_SPECS = ["logistic", "logistic:r=3", "custom:1,-1", "custom:0.7,-1", "custom:3,-2",
              "custom:3,-2,0.9,-0.6", "custom:5,-1", "custom:15,-1", "custom:16,-1",
              "custom:20,-1", "custom:50,-1", "custom:100,-1", "custom:1,-1,-1e-4",
              "custom:25,-1", "custom:0.5,0,-2"]


def _assert_nearer_of_adjacent_doubles(f):
    # the stable zero is one of two adjacent doubles with f > 0 at the lower
    # and f <= 0 at the upper, the one with the smaller |f|, the lower on a tie
    z = f.stable_zero
    lo = z if f(z) > 0.0 else math.nextafter(z, -math.inf)
    hi = math.nextafter(lo, math.inf)
    f_lo, f_hi = float(f(lo)), float(f(hi))
    assert f_lo > 0.0 >= f_hi, (f.label, z)
    assert z == (hi if abs(f_hi) < abs(f_lo) else lo), (f.label, z)


def test_stable_zero_is_the_nearer_of_two_adjacent_doubles(workloads):
    bases = [parse_reaction(spec) for spec in ZERO_SPECS]
    for seed in range(10):
        bases += [p.f for p in workloads.build("speed_family", seed)["problems"]]
    rng = np.random.default_rng(30)  # r*u*(xi - u)*(1 + a*u**2), xi in [0.5, 4]
    for r, xi, a in rng.uniform((0.5, 0.5, 0.0), (3.0, 4.0, 0.5), (20, 3)).tolist():
        bases.append(make_polynomial((r * xi, -r, r * a * xi, -r * a)))
    for f in bases:
        pair = make_perturbation_pair(f, 0.05)
        for member in (f, pair.lower, pair.upper):
            _assert_nearer_of_adjacent_doubles(member)
    # logistic, and every base with xi <= 1, keeps s = 1 and the members' bits
    logistic = make_perturbation_pair(make_logistic(1.0), 0.05)
    assert (logistic.lower.stable_zero, logistic.upper.stable_zero) == (
        0.981258037995028, 1.0180646742295483)


@pytest.mark.parametrize("spec", ["custom:16,-1", "custom:20,-1", "custom:50,-1"])
def test_pair_sandwiches_bases_with_large_stable_zeros(spec):
    # the bump eps*u*exp(-u/s), s = max(1, xi), stays far above one rounding
    # of f near u = 2*xi; with s = 1 it fell below it from xi = 16 up
    f = parse_reaction(spec)
    pair = make_perturbation_pair(f, 0.05)
    u = np.linspace(0.0, 4.0 * f.stable_zero, 10_001)[1:]
    assert np.all(pair.lower(u) < f(u)) and np.all(f(u) < pair.upper(u))
    assert pair.lower.stable_zero < f.stable_zero < pair.upper.stable_zero


def test_polynomial_with_a_flat_stable_zero_is_rejected():
    # u*(1 - u)**3: positive on (0, 1) and negative beyond, but f'(1) = 0
    with pytest.raises(InputError, match=r"not monostable: f'\(stable_zero\) = 0\.000e\+00"):
        make_polynomial((1.0, -3.0, 3.0, -1.0))


def test_pair_whose_member_turns_positive_again_is_rejected():
    # u*(1 - u)*(u - 2.2)**2, expanded in floats, comes within rounding of 0
    # near 2.2; the upper member's bump lifts it above 0 there, inside twice
    # the member's stable zero
    p = -np.polynomial.Polynomial.fromroots([0.0, 1.0, 2.2, 2.2])
    base = make_polynomial(tuple(p.coef[1:]))
    with pytest.raises(PerturbationError, match=r"epsilon=0\.3 breaks monostability of .*\|upper"
                                                r":eps=0\.3: sign violation"):
        make_perturbation_pair(base, 0.3)


def test_pair_that_does_not_sandwich_its_base_is_rejected(monkeypatch, logistic1):
    # a stand-in swaps the members' signs: each is a valid reaction, but
    # the lower one lies above the base
    member = reaction._additive_member
    monkeypatch.setattr(reaction, "_additive_member",
                        lambda base, eps, tag: member(base, -eps, tag))
    with pytest.raises(PerturbationError, match="not strictly sandwiching"):
        make_perturbation_pair(logistic1, 0.05)
