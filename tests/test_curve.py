"""Kummer curve model: validation, genus, places, principal divisors."""

from __future__ import annotations

import random

import pytest

from kummercodes.curve import (CharacteristicDividesMError, DoesNotSplitError,
                               DuplicateRootsError, GcdViolationError,
                               KummerCurve, Place, find_roots)
from kummercodes.gf import FiniteField
from kummercodes.rrlattice import Divisor
from kummercodes.verify import curve_example_1, curve_example_2, curve_example_4
from test_gf import poly_eval, power


def curve_hermitian_gf4():
    """y^3 = x^2 + x over GF(4), modulus x^2 + x + 1: the smallest
    Hermitian curve, g = 1."""
    F = FiniteField(2, 2, [1, 1, 1])
    return KummerCurve(F, 3, 1, find_roots(F, [0, 1, 1]))


def test_genus_values():
    assert curve_example_1().g == 16     # (m,r) = (5,9)
    assert curve_example_2().g == 10     # (6,5)
    assert curve_example_4().g == 12     # (9,4)
    assert curve_hermitian_gf4().g == 1  # (3,2)


def test_genus_zero_curve():
    F = FiniteField(3, 1, [0, 1])
    c = KummerCurve(F, 2, 1, [0])  # y^2 = x, rational
    assert c.g == 0


def test_gcd_violation():
    F = FiniteField(5, 2, [2, 0, 1])
    roots = find_roots(F, [0, 4, 0, 0, 0, 1])  # x^5 - x
    with pytest.raises(GcdViolationError):
        KummerCurve(F, 6, 4, roots)  # gcd(6, 5*4) = 2


def test_characteristic_divides_m():
    F = FiniteField(3, 2, [1, 0, 1])
    with pytest.raises(CharacteristicDividesMError):
        KummerCurve(F, 3, 1, [1])


def test_duplicate_roots():
    F = FiniteField(5, 1, [0, 1])
    with pytest.raises(DuplicateRootsError):
        KummerCurve(F, 3, 1, [1, 1])


def test_curve_parameters_validated():
    F = FiniteField(5, 1, [0, 1])
    with pytest.raises(ValueError, match="at least one root"):
        KummerCurve(F, 3, 1, [])
    with pytest.raises(ValueError, match="m=1"):
        KummerCurve(F, 1, 1, [0])
    with pytest.raises(ValueError, match="lambda=0"):
        KummerCurve(F, 3, 0, [0])
    with pytest.raises(ValueError, match="not an element code"):
        KummerCurve(F, 3, 1, [5])  # a root >= q


def test_bezout_data():
    for c in (curve_example_1(), curve_example_2(), curve_example_4()):
        assert c.A * c.lam + c.B * c.m == 1
        assert c.a * c.r + c.b * c.m == 1
        assert 0 <= c.A < c.m and 0 <= c.a < c.m


def test_place_counts():
    assert curve_example_1().num_places() == 370
    assert curve_example_2().num_places() == 126
    assert curve_example_4().num_places() == 257
    assert curve_hermitian_gf4().num_places() == 9


def f_at(c, x0):
    """f(x0) = prod (x0 - alpha_i)."""
    F = c.field
    val = 1
    for alpha in c.roots:
        val = F.mul(val, F.sub(x0, alpha))
    return val


def on_curve(c, place):
    """Re-validate a place against the curve equation."""
    if place.kind != "affine":
        return place.kind == "infinity" or 1 <= place.mu <= c.r
    fx = f_at(c, place.x)
    F = c.field
    return fx != 0 and power(F, place.y, c.m) == power(F, fx, c.lam)


def test_place_ordering_and_revalidation():
    c = curve_hermitian_gf4()
    places = c.places()
    assert places[0] == Place.infinity()
    assert [p.mu for p in places[1:3]] == [1, 2]
    affine = places[3:]
    assert affine == sorted(affine)
    for p in places:
        assert on_curve(c, p)


def test_affine_places_satisfy_equation():
    c = curve_example_2()
    F = c.field
    for p in c.places():
        if p.kind == "affine":
            assert power(F, p.y, c.m) == power(F, f_at(c, p.x), c.lam)
            assert f_at(c, p.x) != 0


def brute_force_places(c):
    """The q^2 scan: every (x, y) with y^m = f(x)^lambda and f(x) != 0."""
    F = c.field
    out = [Place.infinity()] + [Place.ramified(mu) for mu in range(1, c.r + 1)]
    for x in range(F.q):
        fx = f_at(c, x)
        if fx:
            target = power(F, fx, c.lam)
            out.extend(Place.affine(x, y) for y in range(F.q) if power(F, y, c.m) == target)
    return out


def test_places_match_brute_force_scan():
    gf2 = FiniteField(2, 1, [0, 1])
    gf7 = FiniteField(7, 1, [0, 1])
    gf16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
    curves = [
        KummerCurve(gf2, 3, 1, [0]),                      # y^3 = x over GF(2)
        KummerCurve(gf2, 3, 1, [0, 1]),                   # no affine places
        KummerCurve(gf7, 3, 1, [0]),                      # gcd(3, 6) = 3
        KummerCurve(gf7, 3, 2, [0, 1, 3, 5]),             # lambda = 2, gcd(3, 6) = 3
        KummerCurve(gf7, 5, 1, [1, 2]),                   # gcd(5, 6) = 1
        KummerCurve(gf16, 5, 1, find_roots(gf16, [0, 1, 0, 0, 1])),  # gcd(5, 15) = 5
        curve_hermitian_gf4(),                            # gcd(3, 3) = 3
        curve_example_2(),                                # gcd(6, 24) = 6
    ]
    for c in curves:
        assert c.places() == brute_force_places(c), c


def test_principal_divisors():
    c = curve_example_1()
    y = c.principal_divisor("y")
    assert y == Divisor(tuple([1] * 9), -9)
    xa = c.principal_divisor("x-alpha", 1)
    assert xa == Divisor.make(9, {1: 5}, -5)
    z = c.principal_divisor("z")
    f = c.principal_divisor("f")
    for d in (y, xa, z, f):
        assert d.degree == 0
    # m*(z) = (f)
    assert Divisor(tuple(c.m * v for v in z.s), c.m * z.t) == f
    with pytest.raises(IndexError):
        c.principal_divisor("x-alpha", 10)


def test_find_roots():
    F = FiniteField(2, 2, [1, 1, 1])
    assert find_roots(F, [0, 1, 1]) == (0, 1)  # x^2 + x
    F5 = FiniteField(5, 1, [0, 1])
    with pytest.raises(DoesNotSplitError):
        find_roots(F5, [2, 0, 1])  # x^2 + 2 irreducible mod 5
    with pytest.raises(DoesNotSplitError):
        find_roots(F, [0, 0, 1])  # x^2: repeated root
    with pytest.raises(DoesNotSplitError):
        find_roots(F, [0, 1, 2])  # not monic
    with pytest.raises(DoesNotSplitError, match="degree >= 1"):
        find_roots(F, [1])  # a constant


def test_find_roots_sorted():
    F = FiniteField(5, 1, [0, 1])
    # x^2 - 1 = (x-1)(x+1)
    assert find_roots(F, [4, 0, 1]) == (1, 4)


def split_poly(F, roots):
    """Coefficients, low first, of prod (x - alpha) over roots."""
    coeffs = [1]
    for alpha in roots:
        shifted = [0] + coeffs  # x * f
        coeffs = [F.sub(hi, F.mul(alpha, lo)) for hi, lo in zip(shifted, coeffs + [0])]
    return coeffs


def test_find_roots_matches_horner_scan():
    # The log-domain evaluation over the nonzero coefficients against a
    # Horner scan of every element, on sparse and dense f, split or not.
    rng = random.Random(7)
    gf5 = FiniteField(5, 1, [0, 1])
    gf25 = FiniteField(5, 2, [2, 0, 1])
    gf16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
    gf1024 = FiniteField(2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
    cases = [
        (gf25, [0, 1, 0, 0, 0, 1]),                 # x^5 + x, example 2
        (gf25, [4] + [0] * 23 + [1]),               # x^24 - 1: every nonzero x
        (gf16, [0, 1] + [0] * 14 + [1]),            # x^16 + x: the whole field
        (gf1024, [0, 1] + [0] * 30 + [1]),          # x^32 + x: the subfield GF(32)
        (gf5, [2, 0, 1]),                           # irreducible
        (gf16, [0, 0, 1]),                          # repeated root
    ]
    for F in (gf5, gf25, gf16, gf1024):
        for size in (1, 2, 5, 9):
            roots = rng.sample(range(F.q), min(size, F.q))
            cases.append((F, split_poly(F, roots)))                     # dense, split
            cases.append((F, [F.mul(2, c) for c in split_poly(F, roots)]))  # not monic
            cases.append((F, [rng.randrange(F.q) for _ in range(size)] + [1]))  # sparse or not
    for F, coeffs in cases:
        want = [x for x in range(F.q) if poly_eval(F, coeffs, x) == 0]
        deg = len(coeffs) - 1
        if coeffs[-1] == 1 and len(want) == deg:
            assert find_roots(F, coeffs) == tuple(want), (F, coeffs)
        else:
            with pytest.raises(DoesNotSplitError):
                find_roots(F, coeffs)


def test_place_order_equality_hash_and_str():
    inf, p1, p2 = Place.infinity(), Place.ramified(1), Place.ramified(2)
    a, b, c = Place.affine(0, 5), Place.affine(1, 0), Place.affine(1, 2)
    assert sorted([c, p2, b, inf, a, p1]) == [inf, p1, p2, a, b, c]
    assert Place.affine(1, 2) == c and c != Place.affine(2, 1) and p1 != inf
    assert len({Place.affine(1, 2), c, b}) == 2
    # A place hashes as the tuple of its fields.
    assert hash(c) == hash((2, 0, 1, 2))
    assert [str(p) for p in (inf, p2, c)] == ["Pinf", "P2", "(1,2)"]
    assert [p.kind for p in (inf, p1, c)] == ["infinity", "ramified", "affine"]
    assert repr(c) == "Place(kind_rank=2, mu=0, x=1, y=2)"
    places = curve_hermitian_gf4().places()
    assert all(type(p) is Place for p in places)
    assert places[3:] == [Place.affine(p.x, p.y) for p in places[3:]]
