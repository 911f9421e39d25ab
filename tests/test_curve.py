"""Kummer curve model: validation, genus, places, principal divisors."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from kummercodes.curve import GcdViolationError, KummerCurve, Place, find_roots
from kummercodes.gf import FiniteField
from kummercodes.rrlattice import Divisor, LatticePoint, monomial_divisor
from kummercodes.verify import EXAMPLES
from test_gf import poly_eval, power


def curve_hermitian_gf4():
    """y^3 = x^2 + x over GF(4), modulus x^2 + x + 1: the smallest
    Hermitian curve, g = 1."""
    F = FiniteField(2, 2, [1, 1, 1])
    return KummerCurve(F, 3, 1, find_roots(F, [0, 1, 1]))


def test_genus_values():
    assert EXAMPLES[1].curve().g == 16     # (m,r) = (5,9)
    assert EXAMPLES[2].curve().g == 10     # (6,5)
    assert EXAMPLES[4].curve().g == 12     # (9,4)
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
    with pytest.raises(ValueError, match="^characteristic 3 divides m=3$"):
        KummerCurve(F, 3, 1, [1])


def test_duplicate_roots():
    F = FiniteField(5, 1, [0, 1])
    with pytest.raises(ValueError, match="^roots of f must be pairwise distinct$"):
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
    for c in (EXAMPLES[1].curve(), EXAMPLES[2].curve(), EXAMPLES[4].curve()):
        assert c.A * c.lam + c.B * c.m == 1
        assert c.a * c.r + c.b * c.m == 1
        assert 0 <= c.A < c.m and 0 <= c.a < c.m


def count_made_places(curve):
    """Wrap the instance's iter_places in a counting generator: the returned
    list holds the number of places the stream has yielded so far."""
    made, stream = [0], curve.iter_places

    def counting():
        for place in stream():
            made[0] += 1
            yield place
    curve.iter_places = counting
    return made


def test_place_counts():
    for curve, count in ((EXAMPLES[1].curve(), 370), (EXAMPLES[2].curve(), 126),
                         (EXAMPLES[4].curve(), 257), (curve_hermitian_gf4(), 9)):
        made = count_made_places(curve)
        assert curve.num_places() == count and made == [0]  # counted from the fibres
        assert len(list(curve.iter_places())) == count == made[0]


def f_at(c, x0):
    """f(x0) = prod (x0 - alpha_i)."""
    F = c.field
    val = 1
    for alpha in c.roots:
        val = F.mul(val, F.add(x0, F.neg(alpha)))
    return val


def on_curve(c, place):
    """Re-validate a place against the curve equation."""
    if place.kind_rank != 2:
        return place.kind_rank == 0 or 1 <= place.mu <= c.r
    fx = f_at(c, place.x)
    F = c.field
    return fx != 0 and power(F, place.y, c.m) == power(F, fx, c.lam)


def test_place_ordering_and_revalidation():
    c = curve_hermitian_gf4()
    places = list(c.iter_places())
    assert places[0] == Place.infinity()
    assert [p.mu for p in places[1:3]] == [1, 2]
    affine = places[3:]
    assert affine == sorted(affine)
    for p in places:
        assert on_curve(c, p)


def test_affine_places_satisfy_equation():
    c = EXAMPLES[2].curve()
    F = c.field
    for p in c.iter_places():
        if p.kind_rank == 2:
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
            out.extend(Place(2, x=x, y=y) for y in range(F.q) if power(F, y, c.m) == target)
    return out


def scan_curves():
    gf2 = FiniteField(2, 1, [0, 1])
    gf7 = FiniteField(7, 1, [0, 1])
    gf16 = FiniteField(2, 4, [1, 1, 0, 0, 1])
    return [
        KummerCurve(gf2, 3, 1, [0]),                      # y^3 = x over GF(2)
        KummerCurve(gf2, 3, 1, [0, 1]),                   # no affine places
        KummerCurve(gf7, 3, 1, [0]),                      # gcd(3, 6) = 3
        KummerCurve(gf7, 3, 2, [0, 1, 3, 5]),             # lambda = 2, gcd(3, 6) = 3
        KummerCurve(gf7, 5, 1, [1, 2]),                   # gcd(5, 6) = 1
        KummerCurve(gf16, 5, 1, find_roots(gf16, [0, 1, 0, 0, 1])),  # gcd(5, 15) = 5
        curve_hermitian_gf4(),                            # gcd(3, 3) = 3
        EXAMPLES[2].curve(),                                # gcd(6, 24) = 6
    ]


def test_places_match_brute_force_scan():
    for c in scan_curves():
        assert list(c.iter_places()) == brute_force_places(c), c


def test_fibres_match_brute_force_scan():
    """fibres() is the affine part of the scan, grouped by x0, and
    num_places() counts it without making the places."""
    for c in scan_curves():
        fibres = list(c.fibres())
        xs = [x0 for x0, _ in fibres]
        assert xs == sorted(set(xs)) and not set(xs) & set(c.roots), c
        for _, ys in fibres:
            assert ys and list(ys) == sorted(set(ys)), c
        places = list(c.iter_places())
        affine = [Place(2, x=x0, y=y0) for x0, ys in fibres for y0 in ys]
        assert affine == brute_force_places(c)[1 + c.r:] == places[1 + c.r:], c
        assert c.num_places() == len(places), c


SMALL_FIELDS = [FiniteField(2, 1, [0, 1]), FiniteField(2, 2, [1, 1, 1]), FiniteField(5, 1, [0, 1]),
                FiniteField(7, 1, [0, 1]), FiniteField(2, 3, [1, 1, 0, 1]),
                FiniteField(3, 2, [1, 0, 1]), FiniteField(2, 4, [1, 1, 0, 0, 1]),
                FiniteField(5, 2, [2, 0, 1])]


@st.composite
def kummer_curves(draw):
    """y^m = f(x)^lambda over a field of at most 25 elements, with any r roots,
    m <= 13 prime to p and r, and lambda >= 1 prime to m."""
    F = draw(st.sampled_from(SMALL_FIELDS))
    roots = draw(st.lists(st.integers(0, F.q - 1), min_size=1, max_size=F.q, unique=True))
    m = draw(st.sampled_from([m for m in range(2, 14) if m % F.p and math.gcd(m, len(roots)) == 1]))
    lam = draw(st.sampled_from([lam for lam in range(1, 7) if math.gcd(m, lam) == 1]))
    return KummerCurve(F, m, lam, roots)


@settings(max_examples=100, deadline=None)
@given(kummer_curves())
def test_principal_divisors(c):
    """z, y = z^lambda, f = z^m and x - alpha_mu are the basis monomials at the
    lattice points (1, 0), (lambda, 0), (m, 0), (m, -1) for mu = 1 and (0, e_mu)
    for mu >= 2: monomial_divisor there gives the paper's divisors, and the
    monomials take the functions' own values at every affine place."""
    F, m, r, lam = c.field, c.m, c.r, c.lam
    zero, ones = (0,) * (r - 1), (1,) * r
    x_minus = [LatticePoint(m, (-1,) * (r - 1))] + [
        LatticePoint(0, tuple(int(nu == mu) for nu in range(2, r + 1))) for mu in range(2, r + 1)]
    # (point, its divisor in the paper, its value at the affine place (x0, y0))
    functions = [(LatticePoint(1, zero), Divisor(ones, -r),
                  lambda x0, y0: F.mul(power(F, y0, c.A), power(F, f_at(c, x0), c.B))),
                 (LatticePoint(lam, zero), Divisor((lam,) * r, -r * lam), lambda x0, y0: y0),
                 (LatticePoint(m, zero), Divisor((m,) * r, -r * m), lambda x0, y0: f_at(c, x0))]
    functions += [(pt, Divisor.make(r, {mu: m}, -m),
                   lambda x0, y0, alpha=alpha: F.add(x0, F.neg(alpha)))
                  for mu, (pt, alpha) in enumerate(zip(x_minus, c.roots), 1)]
    affine = list(c.iter_places())[1 + r:]
    for pt, divisor, value in functions:
        assert monomial_divisor(c, pt) == divisor, pt
        for place, L in zip(affine, c.place_logs(affine)):
            log = pt.i * L[0] + sum(j * l for j, l in zip(pt.j, L[1:]))
            assert F._exp[log % (F.q - 1)] == value(place.x, place.y), (pt, place)


def test_find_roots():
    F = FiniteField(2, 2, [1, 1, 1])
    assert find_roots(F, [0, 1, 1]) == (0, 1)  # x^2 + x
    assert find_roots(F, [0, 1, 1, 0, 0]) == find_roots(F, [0, 1, 1])  # trailing zeros
    F5 = FiniteField(5, 1, [0, 1])
    with pytest.raises(ValueError, match="^f has 0 distinct rational roots but degree 2$"):
        find_roots(F5, [2, 0, 1])  # x^2 + 2 irreducible mod 5
    with pytest.raises(ValueError, match="^f has 1 distinct rational roots but degree 2$"):
        find_roots(F, [0, 0, 1])  # x^2: repeated root
    with pytest.raises(ValueError, match="^f must be monic$"):
        find_roots(F, [0, 1, 2])  # not monic
    with pytest.raises(ValueError, match="degree >= 1"):
        find_roots(F, [1])  # a constant
    # Every coefficient is an element code: -1 is not read as the last element
    # through negative indexing, and the check comes before the monic one.
    for coeffs, bad in (([-1, 1], -1), ([0, 99, 0, 0, 1], 99), ([0, 1, 4], 4)):
        with pytest.raises(ValueError, match=rf"^{bad} is not an element code of GF\(4\)$"):
            find_roots(F, coeffs)


def test_find_roots_sorted():
    F = FiniteField(5, 1, [0, 1])
    # x^2 - 1 = (x-1)(x+1)
    assert find_roots(F, [4, 0, 1]) == (1, 4)


def split_poly(F, roots):
    """Coefficients, low first, of prod (x - alpha) over roots."""
    coeffs = [1]
    for alpha in roots:
        shifted = [0] + coeffs  # x * f
        coeffs = [F.add(hi, F.neg(F.mul(alpha, lo))) for hi, lo in zip(shifted, coeffs + [0])]
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
            message = ("f must be monic" if coeffs[-1] != 1
                       else f"f has {len(want)} distinct rational roots but degree {deg}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                find_roots(F, coeffs)


def test_place_order_equality_hash_and_str():
    inf, p1, p2 = Place.infinity(), Place.ramified(1), Place.ramified(2)
    a, b, c = Place(2, x=0, y=5), Place(2, x=1, y=0), Place(2, x=1, y=2)
    assert sorted([c, p2, b, inf, a, p1]) == [inf, p1, p2, a, b, c]
    assert Place(2, x=1, y=2) == c and c != Place(2, x=2, y=1) and p1 != inf
    assert len({Place(2, x=1, y=2), c, b}) == 2
    # A place hashes as the tuple of its fields.
    assert hash(c) == hash((2, 0, 1, 2))
    assert [str(p) for p in (inf, p2, c)] == ["Pinf", "P2", "(1,2)"]
    assert [p.kind_rank for p in (inf, p1, c)] == [0, 1, 2]
    assert repr(c) == "Place(kind_rank=2, mu=0, x=1, y=2)"
    places = list(curve_hermitian_gf4().iter_places())
    assert all(type(p) is Place for p in places)
    assert places[3:] == [Place(2, x=p.x, y=p.y) for p in places[3:]]
