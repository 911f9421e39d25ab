"""Semigroup membership, pure gaps, gap boxes and divisor floors."""

from __future__ import annotations

import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from kummercodes import weierstrass
from kummercodes.rrlattice import Divisor, RamificationData, ceil_div, dimension
from kummercodes.verify import (EXAMPLES, Example, curve_example_1, curve_example_2,
                               curve_example_4)
from kummercodes.weierstrass import (GapBox, PlaceTuple, box_search, floor_divisor,
                                     floor_via_gcd, one_point_gaps, pure_gap, pure_gaps,
                                     semigroup_member)
from test_acceptance import PROFILES
from test_curve import curve_hermitian_gf4


def test_place_tuple_validation():
    c = curve_example_2()
    with pytest.raises(ValueError, match="^at least one place must be selected$"):
        PlaceTuple(0).validate(c.r)
    with pytest.raises(ValueError, match=r"^l=6 out of \[0, 5\]$"):
        PlaceTuple(6).validate(c.r)
    PlaceTuple(0, include_infinity=True).validate(c.r)
    with pytest.raises(ValueError, match="^expected 2 coordinates, got 1$"):
        semigroup_member(c, PlaceTuple(2), (3,))


def test_zero_is_member():
    for c in (curve_example_1(), curve_example_2()):
        assert semigroup_member(c, PlaceTuple(1), (0,))
        assert semigroup_member(c, PlaceTuple(2, True), (0, 0, 0))
        # pole orders are never negative
        assert not semigroup_member(c, PlaceTuple(2, True), (0, -1, 0))


def test_example1_gap_pair():
    c = curve_example_1()
    pl = PlaceTuple(1, include_infinity=True)
    assert not semigroup_member(c, pl, (26, 1))
    assert pure_gap(c, pl, (26, 1))
    assert not pure_gap(c, pl, (27, 1))


def test_example1_pinf_member():
    # 9 = r*1 with j=1, k=0: in H(Pinf)
    c = curve_example_1()
    assert semigroup_member(c, PlaceTuple(0, include_infinity=True), (9,))


def test_example2_pure_gaps():
    c = curve_example_2()
    pl = PlaceTuple(2)
    assert pure_gap(c, pl, (13, 1))
    assert pure_gap(c, pl, (14, 1))


def test_pure_gap_needs_positive_coords():
    c = curve_example_2()
    with pytest.raises(ValueError, match="^pure gap coordinates must be >= 1$"):
        pure_gap(c, PlaceTuple(2), (0, 1))


def test_one_point_gap_counts():
    for c in (curve_example_1(), curve_example_2(), curve_example_4()):
        bound = 3 * c.m * c.r
        assert len(one_point_gaps(c, PlaceTuple(1), bound)) == c.g
        assert len(one_point_gaps(c, PlaceTuple(0, True), bound)) == c.g


def test_one_point_gaps_vs_membership():
    # gap lists agree with the semigroup predicate elementwise
    c = curve_example_2()
    bound = 3 * c.m * c.r
    g_p1 = set(one_point_gaps(c, PlaceTuple(1), bound))
    g_inf = set(one_point_gaps(c, PlaceTuple(0, True), bound))
    for alpha in range(1, bound + 1):
        assert (alpha in g_p1) == (not semigroup_member(c, PlaceTuple(1), (alpha,)))
        assert (alpha in g_inf) == (
            not semigroup_member(c, PlaceTuple(0, True), (alpha,)))


def test_one_point_gaps_refusals():
    c = curve_example_2()
    with pytest.raises(ValueError, match="limit must be >= 1"):
        one_point_gaps(c, PlaceTuple(1), 0)
    with pytest.raises(ValueError, match="^expected 2 coordinates, got 1$"):
        one_point_gaps(c, PlaceTuple(2), 5)


def test_one_point_smallest_gap():
    c = curve_example_2()
    assert 1 in one_point_gaps(c, PlaceTuple(1), 5)
    assert 1 in one_point_gaps(c, PlaceTuple(0, True), 5)


def test_h_p1_closed_form():
    # the l=1 specialization equals the classical one-point characterization
    c = curve_example_4()
    m, r = c.m, c.r
    for alpha in range(0, 3 * m * r + 1):
        closed = -r * alpha + m * (r - 1) * ceil_div(alpha, m) <= 0
        assert semigroup_member(c, PlaceTuple(1), (alpha,)) == closed


def test_two_point_closed_forms():
    # l=2 specialization against the published two-point sets
    c = curve_example_2()
    m, r, a, b = c.m, c.r, c.a, c.b
    for k in range(0, 3 * m):
        for l in range(0, 3 * m):
            both = (m * ceil_div(k - l, m) + m * (r - 2) * ceil_div(k, m) <= k * r
                    and m * ceil_div(l - k, m) + m * (r - 2) * ceil_div(l, m) <= l * r)
            assert semigroup_member(c, PlaceTuple(2), (k, l)) == both
            inf_pair = (m * (r - 1) * ceil_div(k, m) <= l + k * r
                        and m * (r - 1) * ceil_div(-a * l, m) <= k + (a + b * m) * l)
            assert semigroup_member(c, PlaceTuple(1, True), (k, l)) == inf_pair
            if k >= 1 and l >= 1:
                gap_pair = (m * ceil_div(k - l, m) + m * (r - 2) * ceil_div(k, m) > k * r
                            and m * ceil_div(l - k, m) + m * (r - 2) * ceil_div(l, m) > l * r)
                assert pure_gap(c, PlaceTuple(2), (k, l)) == gap_pair


def tuple_divisor(r, pl, coords):
    cs = list(coords)
    t = cs.pop() if pl.include_infinity else 0
    s = [0] * r
    for idx, c in enumerate(cs):
        s[idx] = c
    return Divisor(tuple(s), t)


def dimension_member(curve, pl, coords):
    """Dimension-drop oracle: ell(G) != ell(G - Q_j) for every selected Q_j."""
    G = tuple_divisor(curve.r, pl, coords)
    base = dimension(curve, G)
    for j in range(pl.arity()):
        step = [0] * pl.arity()
        step[j] = 1
        if dimension(curve, G - tuple_divisor(curve.r, pl, step)) == base:
            return False
    return True


def dimension_pure_gap(curve, pl, coords):
    """ell(sum s_i Q_i) = ell(sum (s_i - 1) Q_i)."""
    G = tuple_divisor(curve.r, pl, coords)
    lower = tuple_divisor(curve.r, pl, [c - 1 for c in coords])
    return dimension(curve, G) == dimension(curve, lower)


@st.composite
def profile_places_bound(draw):
    """A coprime profile with 2 <= m <= 12, 1 <= r <= 8, a 2- or 3-place
    tuple on it, and a coordinate bound small enough to scan."""
    m = draw(st.integers(2, 12))
    r = draw(st.integers(1, 8).filter(lambda r: math.gcd(m, r) == 1))
    l, inf = draw(st.sampled_from([(l, inf) for inf in (False, True)
                                   for l in range(r + 1) if l + inf in (2, 3)]))
    pl = PlaceTuple(l, inf)
    return RamificationData(m, r), pl, draw(st.integers(1, 16 if pl.arity() == 2 else 7))


@settings(max_examples=40, deadline=None)
@given(profile_places_bound())
def test_profile_gaps_and_members_match_ell_counts(case):
    # ell-count definitions: at every selected Q_j, ell(G - Q_j) = ell(G)
    # for a pure gap and ell(G - Q_j) = ell(G) - 1 for a semigroup member.
    prof, pl, bound = case
    d = pl.arity()
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]

    def drops(coords):
        G = tuple_divisor(prof.r, pl, coords)
        base = dimension(prof, G)
        return [dimension(prof, G - tuple_divisor(prof.r, pl, u)) != base for u in units]

    window = {pt: drops(pt) for pt in itertools.product(range(bound + 1), repeat=d)}
    want = [pt for pt, dr in window.items() if min(pt) >= 1 and not any(dr)]
    assert pure_gaps(prof, pl, bound) == want
    for pt, dr in window.items():
        assert semigroup_member(prof, pl, pt) == all(dr)


@st.composite
def profile_places_limit(draw):
    """A coprime profile with 2 <= m <= 12, 2 <= r <= 8, a 2- or 3-place
    tuple with at least two finite places, and a bound in [1, 2g - 1]."""
    m = draw(st.integers(2, 12))
    r = draw(st.integers(2, 8).filter(lambda r: math.gcd(m, r) == 1))
    l, inf = draw(st.sampled_from([(l, inf) for inf in (False, True)
                                   for l in range(2, r + 1) if l + inf in (2, 3)]))
    prof = RamificationData(m, r)
    return prof, PlaceTuple(l, inf), draw(st.integers(1, 2 * prof.g - 1))


@settings(max_examples=40, deadline=None)
@given(profile_places_limit())
def test_pure_gap_symmetric_in_finite_coordinates(case):
    # ell depends only on the multiset of the s_j, so permuting the finite
    # coordinates keeps the verdict; pure_gaps relies on it when it uses the
    # P1 gap axis for P_2..P_l and tests only nondecreasing finite parts.
    # Every candidate is tested here, so the pure gaps found must be closed
    # under those permutations and equal what pure_gaps returns.
    prof, pl, limit = case
    axes = [one_point_gaps(prof, PlaceTuple(1), limit)] * pl.l
    if pl.include_infinity:
        axes.append(one_point_gaps(prof, PlaceTuple(0, True), limit))
    found = {pt for pt in itertools.product(*axes) if pure_gap(prof, pl, pt)}
    for pt in found:
        finite, rest = pt[:pl.l], pt[pl.l:]
        assert all(perm + rest in found for perm in itertools.permutations(finite)), pt
    assert pure_gaps(prof, pl, limit) == sorted(found)


PRUNING_CASES = ([(f"profile{m}_{r}", RamificationData(m, r)) for m, r in PROFILES]
                 + [("example1", curve_example_1()), ("example2", curve_example_2()),
                    ("example4", curve_example_4())])


@pytest.mark.parametrize("curve", [c for _, c in PRUNING_CASES],
                         ids=[name for name, _ in PRUNING_CASES])
def test_pure_gaps_equal_exhaustive_scan(curve):
    # The gap-axis search against a scan of the whole box, past the 2g - 1 clamp.
    # Arity 1 covers the finite part without a tail (P1) and the tail
    # without a finite part (Pinf).
    bound = 2 * curve.g + curve.m
    for l in range(curve.r + 1):
        for inf in (False, True):
            if l + inf not in (1, 2, 3):
                continue
            pl = PlaceTuple(l, inf)
            full = [pt for pt in itertools.product(range(1, bound + 1), repeat=pl.arity())
                    if pure_gap(curve, pl, pt)]
            assert pure_gaps(curve, pl, bound) == full, (l, inf)


@pytest.mark.parametrize("pl", [PlaceTuple(3, True), PlaceTuple(4)], ids=["P1P2P3Pinf", "P1P2P3P4"])
def test_pure_gaps_equal_exhaustive_scan_at_arity_4(pl):
    # Four places, three or four of them finite, so the nondecreasing scan
    # expands hits with up to 4! orderings; the box passes 2g - 1 by one.
    curve = curve_example_2()
    bound = 2 * curve.g
    full = [pt for pt in itertools.product(range(1, bound + 1), repeat=4)
            if pure_gap(curve, pl, pt)]
    assert pure_gaps(curve, pl, bound) == full


def test_one_point_gaps_at_every_place_match_ell_counts():
    # The P1 axis serves P_2..P_r in pure_gaps: check that the gaps at every
    # P_mu, and at P_inf, are the alpha >= 1 with ell(alpha Q) = ell((alpha - 1) Q).
    places = 0
    for m in range(2, 13):
        for r in range(1, 9):
            if math.gcd(m, r) != 1:
                continue
            prof = RamificationData(m, r)
            limit = 2 * prof.g + m
            axes = {"P1": set(one_point_gaps(prof, PlaceTuple(1), limit)),
                    "Pinf": set(one_point_gaps(prof, PlaceTuple(0, True), limit))}
            for mu in range(r + 1):
                Q = Divisor.make(r, {mu: 1}) if mu else Divisor.make(r, t=1)
                G, ell = Divisor.make(r), []
                for _ in range(limit + 1):
                    ell.append(dimension(prof, G))
                    G = G + Q
                want = {alpha for alpha in range(1, limit + 1) if ell[alpha] == ell[alpha - 1]}
                assert axes["P1" if mu else "Pinf"] == want, (m, r, mu)
                places += 1
    assert places == 290  # r + 1 places for each of the 55 coprime pairs


def test_pure_gaps_clamp_and_budget():
    c = curve_example_2()  # g = 10, so every axis has 10 gaps up to 2g - 1 = 19
    pl = PlaceTuple(3, include_infinity=True)
    with pytest.raises(ValueError, match="10000 candidate tuples exceed budget 9999"):
        pure_gaps(c, pl, 100, budget=9999)
    with pytest.raises(ValueError, match="^10000 candidate tuples exceed budget 9999$"):
        box_search(c, pl, 19, budget=9999)
    assert pure_gaps(c, pl, 100, budget=10000) == pure_gaps(c, pl, 19)
    assert pure_gaps(c, PlaceTuple(2), 0) == []
    with pytest.raises(ValueError, match=r"^l=6 out of \[0, 5\]$"):
        pure_gaps(c, PlaceTuple(6), 0)


def test_refused_pure_gaps_tests_nothing(monkeypatch):
    # A bound over the budget is refused before either one-point scan runs.
    calls = []
    for name in ("pure_gap", "_member_conditions"):
        original = getattr(weierstrass, name)
        monkeypatch.setattr(weierstrass, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    c = curve_example_2()  # g = 10, so min(bound, g)^4 = 10000 tuples
    pl = PlaceTuple(3, include_infinity=True)
    for search in (pure_gaps, box_search):
        with pytest.raises(ValueError, match="^10000 candidate tuples exceed budget 9999$"):
            search(c, pl, 100, budget=9999)
    assert calls == []
    assert pure_gaps(c, pl, 19, budget=10000)
    assert {"pure_gap", "_member_conditions"} <= set(calls)


def test_oracle_membership_and_pure_gap():
    rng = random.Random(31)
    c = curve_hermitian_gf4()
    for pl in (PlaceTuple(1), PlaceTuple(2), PlaceTuple(1, True),
               PlaceTuple(2, True), PlaceTuple(0, True)):
        for _ in range(60):
            coords = [rng.randrange(0, 12) for _ in range(pl.arity())]
            assert semigroup_member(c, pl, coords) == dimension_member(c, pl, coords)
            pos = [max(1, v) for v in coords]
            assert pure_gap(c, pl, pos) == dimension_pure_gap(c, pl, pos)


def test_single_place_pure_gap_is_gap():
    c = curve_example_2()
    for alpha in range(1, 30):
        assert pure_gap(c, PlaceTuple(1), (alpha,)) == (
            not semigroup_member(c, PlaceTuple(1), (alpha,)))


def test_ramification_data_profile():
    prof = RamificationData(6, 5)
    assert prof.g == 10
    assert prof.a * prof.r % prof.m == 1 % prof.m
    assert prof.a * prof.r + prof.b * prof.m == 1
    with pytest.raises(ValueError):
        RamificationData(6, 4)  # gcd != 1


def test_gap_box_geometry():
    box = GapBox(PlaceTuple(2), (13, 1), (1, 0))
    assert box.corner() == (14, 1)
    assert sorted(box.points()) == [(13, 1), (14, 1)]
    assert box.induced_divisor(5) == Divisor.make(5, {1: 26, 2: 1})


def test_box_search_example_curves():
    c2 = curve_example_2()
    box, G = box_search(c2, PlaceTuple(2), 40)
    assert box.base == (13, 1) and box.widths == (1, 0)
    assert G == Divisor.make(c2.r, {1: 26, 2: 1})

    c1 = curve_example_1()
    box, G = box_search(c1, PlaceTuple(1, include_infinity=True), 40)
    assert box.base == (26, 1) and box.widths == (0, 0)
    assert G == Divisor.make(c1.r, {1: 51}, 1)


def pair_scan_box_search(curve, places, search_bound):
    """The pair scan that preceded top-corner ranking: every box lo..hi
    between two pure gaps whose points are all pure gaps, ranked by the
    largest deg G - (2g - 2) + sum(widths) + arity, then the least deg G,
    the largest base and the largest widths."""
    gaps = set(pure_gaps(curve, places, search_bound))
    best = best_key = None
    for hi in gaps:
        for lo in gaps:
            if not all(map(operator.le, lo, hi)):
                continue
            box = GapBox(places, lo, tuple(b - a for a, b in zip(lo, hi)))
            deg = sum(box.coefficients())
            value = deg - (2 * curve.g - 2) + sum(box.widths) + places.arity()
            key = (-value, deg, tuple(-c for c in lo), tuple(-w for w in box.widths))
            if ((best_key is None or key < best_key)
                    and all(pt in gaps for pt in box.points())):
                best, best_key = box, key
    return None if best is None else (best, best.induced_divisor(curve.r))


@pytest.mark.parametrize("curve", [c for _, c in PRUNING_CASES],
                         ids=[name for name, _ in PRUNING_CASES])
def test_box_search_equals_pair_scan(curve):
    bound = 2 * curve.g - 1
    for l in range(min(curve.r, 3) + 1):
        for inf in (False, True):
            if 1 <= l + inf <= 3:
                pl = PlaceTuple(l, inf)
                assert box_search(curve, pl, bound) == pair_scan_box_search(curve, pl, bound), pl


@st.composite
def profile_places_box_bound(draw):
    """A coprime profile with 2 <= m <= 9, 1 <= r <= 4, a 1- to 3-place
    tuple on it, with or without P_inf, and the bound 2g - 1."""
    m = draw(st.integers(2, 9))
    r = draw(st.integers(1, 4).filter(lambda r: math.gcd(m, r) == 1))
    l, inf = draw(st.sampled_from([(l, inf) for inf in (False, True)
                                   for l in range(r + 1) if 1 <= l + inf <= 3]))
    prof = RamificationData(m, r)
    return prof, PlaceTuple(l, inf), 2 * prof.g - 1


@settings(max_examples=100, deadline=None)
@given(profile_places_box_bound())
def test_box_search_equals_pair_scan_on_random_profiles(case):
    # The rank-order walk keeps every tie-break of the pair scan: least
    # degree, then the largest base, then the largest widths.
    prof, pl, bound = case
    assert box_search(prof, pl, bound) == pair_scan_box_search(prof, pl, bound)


def test_box_search_equals_pair_scan_on_a_large_profile():
    # g = 25 and 1,419 pure gaps: the case that made the pair scan slow.
    prof, pl = RamificationData(11, 6), PlaceTuple(2, include_infinity=True)
    assert box_search(prof, pl, 49) == pair_scan_box_search(prof, pl, 49)


def test_box_search_refuses_over_budget():
    # g = 28: 28^3 = 21,952 candidate tuples give 2,296 pure gaps, 90 of them
    # with the largest coordinate sum, so 90 * 2,296 candidate boxes.
    prof, pl = RamificationData(9, 8), PlaceTuple(3)
    assert len(pure_gaps(prof, pl, 55, budget=100_000)) == 2296
    with pytest.raises(ValueError, match="^206640 candidate boxes exceed budget 100000$"):
        box_search(prof, pl, 55, budget=100_000)


def test_box_search_genus_zero():
    from kummercodes.curve import KummerCurve
    from kummercodes.gf import FiniteField

    F = FiniteField(3, 1, [0, 1])
    c = KummerCurve(F, 2, 1, [0])
    assert box_search(c, PlaceTuple(1), 10) is None


def test_floor_example4():
    c = curve_example_4()
    H = Divisor.make(c.r, {1: 14, 2: 1}, 4)
    assert floor_divisor(c, H) == Divisor.make(c.r, {1: 14}, 4)


def test_floor_zero_and_empty():
    c = curve_example_2()
    zero = Divisor.make(c.r)
    assert floor_divisor(c, zero) == zero
    for floor in (floor_divisor, floor_via_gcd):
        with pytest.raises(ValueError, match=r"^ell\(H\) = 0; floor undefined$"):
            floor(c, Divisor.make(c.r, {1: -1}))


def leq(D, E):
    """Coefficient-wise D <= E."""
    return all(a <= b for a, b in zip(D.s, E.s)) and D.t <= E.t


def test_floor_properties_random():
    rng = random.Random(37)
    for c in (curve_example_2(), curve_hermitian_gf4()):
        done = 0
        while done < 60:
            H = Divisor(tuple(rng.randrange(-2, 12) for _ in range(c.r)),
                        rng.randrange(-2, 12))
            if dimension(c, H) == 0:
                continue
            done += 1
            flo = floor_divisor(c, H)
            assert leq(flo, H)
            assert dimension(c, flo) == dimension(c, H)
            assert floor_divisor(c, flo) == flo
            assert flo == floor_via_gcd(c, H)
            # Minimality: lowering any one coefficient (each P_mu, then P_inf) loses a function.
            for k in range(c.r + 1):
                lower = Divisor(tuple(v - (mu == k) for mu, v in enumerate(flo.s)), flo.t - (k == c.r))
                assert dimension(c, lower) < dimension(c, H), (H, k)


def test_floor_fixed_iff_member():
    # an effective divisor on the distinguished places equals its floor
    # exactly when its coordinates lie in the Weierstrass semigroup
    c = curve_example_2()
    pl = PlaceTuple(2, include_infinity=True)
    rng = random.Random(41)
    for _ in range(60):
        coords = [rng.randrange(0, 14) for _ in range(3)]
        G = tuple_divisor(c.r, pl, coords)
        fixed = floor_divisor(c, G) == G
        assert fixed == semigroup_member(c, pl, coords)


def test_place_tuple_gap_box_and_example_keep_repr_hash_and_field_order():
    box = GapBox(PlaceTuple(2), (13, 1), (1, 0))
    assert repr(box) == ("GapBox(places=PlaceTuple(l=2, include_infinity=False), "
                         "base=(13, 1), widths=(1, 0))")
    assert hash(box) == hash(((2, False), (13, 1), (1, 0)))
    assert box == ((2, False), (13, 1), (1, 0))  # equal to plain tuples, as NamedTuples
    assert PlaceTuple(1) == PlaceTuple(1, include_infinity=False) != PlaceTuple(1, True)
    assert Example._fields == (
        "gf", "f", "m", "lam", "genus", "distance", "code", "places", "f_text", "profile",
        "verdicts", "box", "published_box", "refutation", "G", "H", "basis", "floor")
    assert repr(EXAMPLES[2]).startswith(
        "Example(gf=(5, 2, (2, 0, 1)), f=(0, 1, 0, 0, 0, 1), m=6, lam=1, genus=10, ")
