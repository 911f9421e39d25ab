"""Lattice enumeration, dimensions and the evaluation of basis monomials."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kummercodes.agcode import evaluation_matrix
from kummercodes import rrlattice
from kummercodes.curve import KummerCurve, Place
from kummercodes.rrlattice import (DEFAULT_BUDGET, Divisor, LatticePoint, RamificationData,
                                   ceil_div, dimension, monomial_divisor, omega_enumerate,
                                   residue_classes)
from kummercodes.verify import EXAMPLES
from kummercodes.weierstrass import _member_conditions, floor_divisor
from test_curve import curve_hermitian_gf4, f_at
from test_gf import power


def increment_predicate(curve, G, at):
    """Whether ell(G) = ell(G - P) + 1 for P = P_1 or P_inf: the membership
    inequality of that place when all r finite places are selected."""
    return _member_conditions(curve, list(G.s), G.t)[0 if at == "Pinf" else 1] <= 0


def random_divisor(rng, r, lo=-6, hi=20):
    return Divisor(tuple(rng.randrange(lo, hi) for _ in range(r)),
                   rng.randrange(lo, hi))


def scan_basis(prof, G):
    """The candidate scan that listed the basis before the residue classes, kept as
    their oracle: for each i >= -s_1 the j_mu are forced, the point survives when
    its pole order at infinity is at most t, and m misses in a row end the scan."""
    m, r, s = prof.m, prof.r, G.s
    points, i, misses = [], -s[0], 0
    while misses < m:
        js = tuple(ceil_div(-i - s[mu], m) for mu in range(1, r))
        if r * i + m * sum(js) <= G.t:
            points.append(LatticePoint(i, js))
            misses = 0
        else:
            misses += 1
        i += 1
    return points


@st.composite
def profile_and_divisor(draw, t_max=200):
    """A coprime profile with m <= 14, r <= 9 and a divisor with s in [-40, 60]."""
    m = draw(st.integers(2, 14))
    r = draw(st.integers(1, 9).filter(lambda r: math.gcd(m, r) == 1))
    s = tuple(draw(st.lists(st.integers(-40, 60), min_size=r, max_size=r)))
    return RamificationData(m, r), Divisor(s, draw(st.integers(-60, t_max)))


@settings(max_examples=150, deadline=None)
@given(profile_and_divisor())
def test_residue_classes_equal_the_scan(case):
    prof, G = case
    pts = scan_basis(prof, G)
    assert omega_enumerate(prof, G) == pts
    assert dimension(prof, G) == len(pts)
    if pts:
        divs = [monomial_divisor(prof, pt) for pt in pts]
        assert floor_divisor(prof, G) == -Divisor(tuple(map(min, zip(*(d.s for d in divs)))),
                                                  min(d.t for d in divs))


@settings(max_examples=150, deadline=None)
@given(profile_and_divisor())
def test_residue_classes_are_the_non_empty_runs_of_the_scan(case):
    # One (first point, size) per class of i mod m that holds a point, in i order;
    # a class without one is left out, so every size is positive.
    prof, G = case
    runs = {}
    for pt in scan_basis(prof, G):
        runs.setdefault((pt.i + G.s[0]) % prof.m, []).append(pt)
    assert residue_classes(prof, G) == sorted((run[0], len(run)) for run in runs.values())


def test_negative_degree_has_no_residue_class():
    prof = RamificationData(3, 2)
    for G in (Divisor((0, 0), -1), Divisor((-1, 0), 0), Divisor((0, 0), -10 ** 12)):
        assert residue_classes(prof, G) == []


def test_omega_enumerate_builds_the_classes_once(monkeypatch):
    calls = []
    classes = rrlattice.residue_classes
    monkeypatch.setattr(rrlattice, "residue_classes",
                        lambda *args: calls.append(args) or classes(*args))
    c = EXAMPLES[2].curve()
    G = Divisor.make(c.r, {1: 26, 2: 1})
    assert len(omega_enumerate(c, G)) == 18
    assert calls == [(c, G)]


def test_empty_classes_make_no_point_and_no_divisor(monkeypatch):
    # Of the 65537 classes of i mod m on the profile (65537, 2), L(10 P_inf) fills
    # the six with 2 i0 <= 10, one point each; the others make nothing.
    prof, G, made = RamificationData(2 ** 16 + 1, 2), Divisor((0, 0), 10), Counter()
    for name in ("LatticePoint", "Divisor"):
        monkeypatch.setattr(rrlattice, name, lambda *args, name=name, real=getattr(
            rrlattice, name): made.update([name]) or real(*args))
    assert residue_classes(prof, G) == [(LatticePoint(i, (0,)), 1) for i in range(6)]
    assert made == {"LatticePoint": 6}


@settings(max_examples=150, deadline=None)
@given(profile_and_divisor(t_max=10 ** 9))
def test_riemann_roch_with_the_divisor_of_dx(case):
    # K = (m - 1)(P_1 + ... + P_r) - (m + 1) P_inf, the divisor of dx, is canonical:
    # ell(G) - ell(K - G) = deg G + 1 - g at every degree, far past the old scan's budget.
    prof, G = case
    K = Divisor((prof.m - 1,) * prof.r, -(prof.m + 1))
    assert K.degree == 2 * prof.g - 2
    assert dimension(prof, G) - dimension(prof, K - G) == G.degree + 1 - prof.g


def test_ceil_div():
    assert ceil_div(7, 3) == 3
    assert ceil_div(-7, 3) == -2
    assert ceil_div(6, 3) == 2
    assert ceil_div(0, 5) == 0


def test_zero_divisor_gives_constants():
    for c in (EXAMPLES[2].curve(), curve_hermitian_gf4()):
        pts = omega_enumerate(c, Divisor.make(c.r))
        assert len(pts) == 1
        assert pts[0].i == 0 and all(j == 0 for j in pts[0].j)


def test_negative_degree_is_empty():
    c = curve_hermitian_gf4()
    assert dimension(c, Divisor((-1, 0), 0)) == 0
    assert dimension(c, Divisor((0, 0), -1)) == 0


def test_scan_refused_over_budget():
    # The listing makes ell(G) points; one over the budget is refused before any
    # is made.  deg G > 2g - 2 = 0 gives ell(G) = deg G + 1 - g = deg G.
    prof = RamificationData(3, 2)
    over = Divisor((0, 0), DEFAULT_BUDGET + 1)
    assert dimension(prof, over) == DEFAULT_BUDGET + 1
    with pytest.raises(ValueError,
                       match=f"^{DEFAULT_BUDGET + 1} basis monomials exceed budget "):
        omega_enumerate(prof, over)
    assert omega_enumerate(prof, Divisor((0, 0), -10 ** 12)) == []
    # minus the divisor of z^i (x - alpha_2)^j with i = -3 * 10^11, j = 10^11: principal
    assert dimension(prof, Divisor((3 * 10 ** 11, 0), -3 * 10 ** 11)) == 1


def test_residue_classes_refused_over_budget():
    # Each of the m classes of i mod m takes r ceilings; m * r over the budget is
    # refused before the first class, by ell(G), the floor and the listing alike.
    prof, G = RamificationData(2 ** 24 + 1, 2), Divisor((0, 0), 10)
    message = f"^{2 ** 25 + 2} residue-class terms exceed budget {DEFAULT_BUDGET}$"
    for job in (dimension, floor_divisor, omega_enumerate):
        with pytest.raises(ValueError, match=message):
            job(prof, G)


def test_divisor_must_match_the_profile():
    with pytest.raises(ValueError, match="has 1 finite coefficients, curve has r=2"):
        omega_enumerate(curve_hermitian_gf4(), Divisor((0,), 3))


def test_example1_45pinf():
    # s = 0, t = 45 = rm: count is 1 - g + t = 30
    c = EXAMPLES[1].curve()
    assert dimension(c, Divisor.make(c.r, t=45)) == 30


def test_example2_26p1_p2():
    # deg 27 > 2g - 2 = 18, so ell = 27 + 1 - 10
    c = EXAMPLES[2].curve()
    assert dimension(c, Divisor.make(c.r, {1: 26, 2: 1})) == 18


def test_membership_window():
    # every enumerated point satisfies 0 <= i + m j_mu + s_mu < m
    c = EXAMPLES[4].curve()
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
        with pytest.raises(ValueError, match=r"place index -?\d+ out of range \[1, 5\]"):
            Divisor.make(5, {mu: 3})


def test_monotonicity():
    rng = random.Random(13)
    c = EXAMPLES[2].curve()
    for _ in range(40):
        G = random_divisor(rng, c.r)
        base = dimension(c, G)
        for step in [Divisor.make(c.r, {1: 1}), Divisor.make(c.r, t=1)]:
            up = dimension(c, G + step)
            assert base <= up <= base + 1


def test_increment_predicate_oracle():
    rng = random.Random(19)
    c = EXAMPLES[2].curve()
    p1 = Divisor.make(c.r, {1: 1})
    pinf = Divisor.make(c.r, t=1)
    for _ in range(200):
        G = random_divisor(rng, c.r, lo=-4, hi=15)
        want_p1 = dimension(c, G) == dimension(c, G - p1) + 1
        want_inf = dimension(c, G) == dimension(c, G - pinf) + 1
        assert increment_predicate(c, G, "P1") == want_p1
        assert increment_predicate(c, G, "Pinf") == want_inf


def test_increment_zero_divisor():
    c = EXAMPLES[1].curve()
    assert increment_predicate(c, Divisor.make(c.r), "P1")


def test_increment_pure_gap_point():
    # (26,1) is a pure gap at (P1, Pinf) on the Example-1 curve, so the
    # dimension does not drop when P1 is removed
    c = EXAMPLES[1].curve()
    assert not increment_predicate(c, Divisor.make(c.r, {1: 26}, 1), "P1")


def test_monomial_divisors():
    c = EXAMPLES[2].curve()
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
    for c in (curve_hermitian_gf4(), EXAMPLES[4].curve()):
        G = Divisor.make(c.r)
        assert evaluation_matrix(c, G, list(c.iter_places())).rows == [[1] * c.num_places()]


def test_evaluate_z_power_is_f():
    # z^m = f(x) at every affine place; lambda = 2 makes z = y^A f(x)^B with B = -1
    ex4 = EXAMPLES[4].curve()
    for c in (curve_hermitian_gf4(), KummerCurve(ex4.field, 9, 2, ex4.roots)):
        F = c.field
        G = Divisor.make(c.r, t=c.r)
        affine = [p for p in c.iter_places() if p.kind_rank == 2]
        z_row = evaluation_matrix(c, G, affine).rows[row_of(c, G, 1)]
        assert [power(F, z0, c.m) for z0 in z_row] == [f_at(c, p.x) for p in affine]


def test_evaluate_at_ramified_and_infinity():
    c = curve_hermitian_gf4()
    G = Divisor.make(c.r, t=c.r)
    # z vanishes at every ramified place
    M = evaluation_matrix(c, G, [Place.ramified(1), Place.ramified(2)])
    assert M.rows[row_of(c, G, 1)] == [0, 0]
    # and has a pole at infinity, which lies in supp(G) and is refused
    with pytest.raises(ValueError, match=r"^place Pinf lies in supp\(G\)$"):
        evaluation_matrix(c, G, [Place.ramified(1), Place.infinity()])


def test_evaluate_pole_detection():
    c = curve_hermitian_gf4()
    # 1/z spans L(P1 + P2) with the constants: its poles at P1 and P2 lie in
    # supp(G) and are refused, and it is 0 at infinity
    G = Divisor((1, 1), 0)
    for place in (Place.ramified(1), Place.ramified(2)):
        with pytest.raises(ValueError, match=rf"^place {place} lies in supp\(G\)$"):
            evaluation_matrix(c, G, [Place.infinity(), place])
    assert evaluation_matrix(c, G, [Place.infinity()]).rows[row_of(c, G, -1)] == [0]


def test_basis_evaluations_full_rank():
    # the basis of L(G) evaluated at the 8 places off supp(G) is a
    # linearly independent family whenever deg(G) < n
    c = curve_hermitian_gf4()
    G = Divisor.make(c.r, t=3)
    D = [p for p in c.iter_places() if p.kind_rank != 0]
    M = evaluation_matrix(c, G, D)
    assert len(M.rref()[1]) == M.nrows == dimension(c, G)


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
