"""Lattice enumeration, dimensions and the evaluation of basis monomials."""

from __future__ import annotations

import random

import pytest

from kummercodes.agcode import PlaceInSupportError, evaluation_matrix
from kummercodes.curve import KummerCurve, Place
from kummercodes.rrlattice import (DEFAULT_BUDGET, BudgetExceededError, Divisor,
                                   LatticePoint, RamificationData, ceil_div, dimension,
                                   monomial_divisor, omega_enumerate)
from kummercodes.verify import curve_example_1, curve_example_2, curve_example_4
from kummercodes.weierstrass import _member_conditions
from test_curve import curve_hermitian_gf4, f_at
from test_gf import power


def increment_predicate(curve, G, at):
    """Whether ell(G) = ell(G - P) + 1 for P = P_1 or P_inf: the membership
    inequality of that place when all r finite places are selected."""
    return _member_conditions(curve, list(G.s), G.t)[0 if at == "Pinf" else 1] <= 0


def random_divisor(rng, r, lo=-6, hi=20):
    return Divisor(tuple(rng.randrange(lo, hi) for _ in range(r)),
                   rng.randrange(lo, hi))


def test_ceil_div():
    assert ceil_div(7, 3) == 3
    assert ceil_div(-7, 3) == -2
    assert ceil_div(6, 3) == 2
    assert ceil_div(0, 5) == 0


def test_zero_divisor_gives_constants():
    for c in (curve_example_2(), curve_hermitian_gf4()):
        pts = omega_enumerate(c, Divisor.make(c.r))
        assert len(pts) == 1
        assert pts[0].i == 0 and all(j == 0 for j in pts[0].j)


def test_negative_degree_is_empty():
    c = curve_hermitian_gf4()
    assert dimension(c, Divisor((-1, 0), 0)) == 0
    assert dimension(c, Divisor((0, 0), -1)) == 0


def test_scan_refused_over_budget():
    # The scan visits at most max(deg G, 0) + m + 1 candidates; one over the
    # budget is refused before any is tried.
    prof = RamificationData(3, 2)
    over = Divisor((0, 0), DEFAULT_BUDGET - 3)
    with pytest.raises(BudgetExceededError,
                       match=f"^{DEFAULT_BUDGET + 1} lattice candidates exceed budget "):
        omega_enumerate(prof, over)
    assert omega_enumerate(prof, Divisor((0, 0), -10 ** 12)) == []
    # minus the divisor of z^i (x - alpha_2)^j with i = -3 * 10^11, j = 10^11: principal
    assert dimension(prof, Divisor((3 * 10 ** 11, 0), -3 * 10 ** 11)) == 1


def test_divisor_must_match_the_profile():
    with pytest.raises(ValueError, match="has 1 finite coefficients, curve has r=2"):
        omega_enumerate(curve_hermitian_gf4(), Divisor((0,), 3))


def test_example1_45pinf():
    # s = 0, t = 45 = rm: count is 1 - g + t = 30
    c = curve_example_1()
    assert dimension(c, Divisor.make(c.r, t=45)) == 30


def test_example2_26p1_p2():
    # deg 27 > 2g - 2 = 18, so ell = 27 + 1 - 10
    c = curve_example_2()
    assert dimension(c, Divisor.make(c.r, {1: 26, 2: 1})) == 18


def test_membership_window():
    # every enumerated point satisfies 0 <= i + m j_mu + s_mu < m
    c = curve_example_4()
    rng = random.Random(5)
    for _ in range(50):
        G = random_divisor(rng, c.r)
        for pt in omega_enumerate(c, G):
            assert pt.i + G.s[0] >= 0
            for mu, j in enumerate(pt.j):
                w = pt.i + c.m * j + G.s[mu + 1]
                assert 0 <= w < c.m
            assert c.r * pt.i + c.m * sum(pt.j) <= G.t


def test_counting_law_small():
    # #Omega = 1 - g + deg(G) once deg(G) >= (2r-1)m
    rng = random.Random(7)
    for m, r in ((3, 2), (6, 5)):
        prof = RamificationData(m, r)
        for _ in range(50):
            G = random_divisor(rng, r, lo=0, hi=3 * m)
            if G.degree < (2 * r - 1) * m:
                continue
            assert dimension(prof, G) == 1 - prof.g + G.degree


def test_symmetry_in_s():
    rng = random.Random(9)
    prof = RamificationData(5, 4)
    for _ in range(60):
        G = random_divisor(rng, 4)
        perm = list(G.s)
        rng.shuffle(perm)
        assert dimension(prof, G) == dimension(prof, Divisor(tuple(perm), G.t))


def test_divisor_make_indices():
    # Place indices run over 1..r; P_inf has its own argument t.
    assert Divisor.make(5, {1: 3, 5: 2}, 4) == Divisor((3, 0, 0, 0, 2), 4)
    for mu in (0, -1, 6):
        with pytest.raises(IndexError, match=r"place index -?\d+ out of range \[1, 5\]"):
            Divisor.make(5, {mu: 3})


def test_monotonicity():
    rng = random.Random(13)
    c = curve_example_2()
    for _ in range(40):
        G = random_divisor(rng, c.r)
        base = dimension(c, G)
        for step in [Divisor.make(c.r, {1: 1}), Divisor.make(c.r, t=1)]:
            up = dimension(c, G + step)
            assert base <= up <= base + 1


def test_increment_predicate_oracle():
    rng = random.Random(19)
    c = curve_example_2()
    p1 = Divisor.make(c.r, {1: 1})
    pinf = Divisor.make(c.r, t=1)
    for _ in range(200):
        G = random_divisor(rng, c.r, lo=-4, hi=15)
        want_p1 = dimension(c, G) == dimension(c, G - p1) + 1
        want_inf = dimension(c, G) == dimension(c, G - pinf) + 1
        assert increment_predicate(c, G, "P1") == want_p1
        assert increment_predicate(c, G, "Pinf") == want_inf


def test_increment_zero_divisor():
    c = curve_example_1()
    assert increment_predicate(c, Divisor.make(c.r), "P1")


def test_increment_pure_gap_point():
    # (26,1) is a pure gap at (P1, Pinf) on the Example-1 curve, so the
    # dimension does not drop when P1 is removed
    c = curve_example_1()
    assert not increment_predicate(c, Divisor.make(c.r, {1: 26}, 1), "P1")


def test_monomial_divisors():
    c = curve_example_2()
    pts = omega_enumerate(c, Divisor.make(c.r, {1: 6}, 12))
    for pt in pts:
        d = monomial_divisor(c, pt)
        assert d.degree == 0
    # z itself: i=1, j=0
    z_pt = [pt for pt in omega_enumerate(c, Divisor.make(c.r, t=c.r)) if pt.i == 1]
    assert monomial_divisor(c, z_pt[0]) == Divisor(tuple([1] * c.r), -c.r)


def row_of(c, G, i):
    """Index of the evaluation-matrix row of the basis monomial with z-exponent i."""
    return [pt.i for pt in omega_enumerate(c, G)].index(i)


def test_evaluate_constant():
    # L(0) holds the constants, and no rational place lies in supp(0)
    for c in (curve_hermitian_gf4(), curve_example_4()):
        G = Divisor.make(c.r)
        assert evaluation_matrix(c, G, c.places()).rows == [[1] * c.num_places()]


def test_evaluate_z_power_is_f():
    # z^m = f(x) at every affine place; lambda = 2 makes z = y^A f(x)^B with B = -1
    ex4 = curve_example_4()
    for c in (curve_hermitian_gf4(), KummerCurve(ex4.field, 9, 2, ex4.roots)):
        F = c.field
        G = Divisor.make(c.r, t=c.r)
        affine = [p for p in c.places() if p.kind == "affine"]
        z_row = evaluation_matrix(c, G, affine).rows[row_of(c, G, 1)]
        assert [power(F, z0, c.m) for z0 in z_row] == [f_at(c, p.x) for p in affine]


def test_evaluate_at_ramified_and_infinity():
    c = curve_hermitian_gf4()
    G = Divisor.make(c.r, t=c.r)
    # z vanishes at every ramified place
    M = evaluation_matrix(c, G, [Place.ramified(1), Place.ramified(2)])
    assert M.rows[row_of(c, G, 1)] == [0, 0]
    # and has a pole at infinity, which lies in supp(G) and is refused
    with pytest.raises(PlaceInSupportError):
        evaluation_matrix(c, G, [Place.ramified(1), Place.infinity()])


def test_evaluate_pole_detection():
    c = curve_hermitian_gf4()
    # 1/z spans L(P1 + P2) with the constants: its poles at P1 and P2 lie in
    # supp(G) and are refused, and it is 0 at infinity
    G = Divisor((1, 1), 0)
    for place in (Place.ramified(1), Place.ramified(2)):
        with pytest.raises(PlaceInSupportError):
            evaluation_matrix(c, G, [Place.infinity(), place])
    assert evaluation_matrix(c, G, [Place.infinity()]).rows[row_of(c, G, -1)] == [0]


def test_basis_evaluations_full_rank():
    # the basis of L(G) evaluated at the 8 places off supp(G) is a
    # linearly independent family whenever deg(G) < n
    c = curve_hermitian_gf4()
    G = Divisor.make(c.r, t=3)
    D = [p for p in c.places() if p.kind != "infinity"]
    M = evaluation_matrix(c, G, D)
    assert M.rref()[0] == M.nrows == dimension(c, G)


def test_divisor_and_lattice_point_keep_repr_hash_and_field_order():
    G, pt = Divisor((1, 2), 3), LatticePoint(-1, (0, 2))
    assert repr(G) == "Divisor(s=(1, 2), t=3)" and repr(pt) == "LatticePoint(i=-1, j=(0, 2))"
    assert Divisor._fields == ("s", "t") and LatticePoint._fields == ("i", "j")
    assert hash(G) == hash(((1, 2), 3)) and hash(pt) == hash((-1, (0, 2)))
    # As NamedTuples they also compare equal to plain tuples of their fields.
    assert G == ((1, 2), 3) and pt == (-1, (0, 2))
    # The arithmetic is the divisor's, not tuple concatenation or repetition.
    assert G + G == Divisor((2, 4), 6) and G - G == Divisor((0, 0), 0)
    assert -G == Divisor((-1, -2), -3) and str(G) == "1 2 3" and G.degree == 6
    with pytest.raises(AttributeError):
        G.t = 4
