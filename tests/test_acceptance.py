"""Acceptance suite: one test per acceptance criterion.

Criterion 5 checks the pure-gap predicate against the paper's pure gaps.
The published box {8..9} x {1} x {1..3} at (P1, P2, Pinf) of the
(m, r) = (6, 5) profile overreaches at its corner (9, 1, 3): there the
P_inf and P1 inequalities of the characterization hold with equality, not
strictly.  Two independent counts agree that the corner is not a pure gap,
ell(9P1+P2+3Pinf) = ell(9P1+3Pinf) = 4 > ell(8P1+2Pinf) = 3: the sum over
the powers y^k of Riemann-Roch dimensions on the projective line (the
basis of Maharaj), and the rank of the evaluation matrix of C_L on
example 2's curve.  The test therefore asserts five pure gaps and one
refuted corner; `verify-example 3` still reports the published claim as
FAIL.
"""

from __future__ import annotations

import itertools
import random

from kummercodes.agcode import brute_force_distance, build_cl, build_comega, evaluation_places
from kummercodes.cli import main
from kummercodes.rrlattice import (Divisor, RamificationData, dimension,
                                   omega_enumerate)
from kummercodes.verify import EXAMPLES
from kummercodes.weierstrass import (GapBox, PlaceTuple, box_bound_value,
                                     floor_divisor, floor_pair_bound,
                                     pure_gap, pure_gap_box_bound, semigroup_member)
from test_agcode import orthogonal
from test_curve import curve_hermitian_gf4

PROFILES = [(3, 2), (5, 9), (6, 5), (9, 4)]


def test_criterion_1_genus_and_place_counts():
    c1 = EXAMPLES[1].curve()
    assert (c1.g, c1.num_places()) == (16, 370)
    c2 = EXAMPLES[2].curve()
    assert (c2.g, c2.num_places()) == (10, 126)
    c4 = EXAMPLES[4].curve()
    assert (c4.g, c4.num_places()) == (12, 257)


def test_criterion_2_counting_law():
    rng = random.Random(101)
    for m, r in PROFILES:
        prof = RamificationData(m, r)
        floor_deg = (2 * r - 1) * m
        done = 0
        while done < 125:
            s = tuple(rng.randrange(0, 3 * m) for _ in range(r))
            t = rng.randrange(0, 3 * m * r)
            G = Divisor(s, t)
            if G.degree < floor_deg:
                continue
            done += 1
            assert dimension(prof, G) == 1 - prof.g + G.degree

    # specializations, each against an independent brute count
    for _ in range(100):
        m, r = PROFILES[rng.randrange(len(PROFILES))]
        prof = RamificationData(m, r)
        t = rng.randrange(r * m, 4 * r * m)

        # auxiliary two-loop count: pairs (I, k), 0 <= I < m, k >= 0,
        # r*I <= t - m*k
        psi = sum(1 for k in range(t // m + 1) for I in range(m)
                  if r * I <= t - m * k)
        assert psi == 1 - prof.g + t

        # all-zero s
        assert dimension(prof, Divisor(tuple([0] * r), t)) == 1 - prof.g + t

        # s_2 = 0, other coordinates in [1, m]
        s = [rng.randrange(1, m + 1) for _ in range(r)]
        s[1] = 0
        G = Divisor(tuple(s), t)
        assert dimension(prof, G) == 1 - prof.g + t + sum(s)


def test_criterion_3_example4_basis_listing():
    c = EXAMPLES[4].curve()
    H = Divisor.make(c.r, {1: 14, 2: 1}, 4)
    pts = omega_enumerate(c, H)
    m, r = c.m, c.r
    got = {(-p.i,) + tuple(-p.i - m * j for j in p.j) + (r * p.i + m * sum(p.j),)
           for p in pts}
    expected = {
        (14, -4, -4, -4, -2),
        (13, -5, -5, -5, 2),
        (9, 0, 0, 0, -9),
        (8, -1, -1, -1, -5),
        (7, -2, -2, -2, -1),
        (6, -3, -3, -3, 3),
        (0, 0, 0, 0, 0),
        (-1, -1, -1, -1, 4),
    }
    assert got == expected


def test_criterion_4_floor():
    c4 = EXAMPLES[4].curve()
    H = Divisor.make(c4.r, {1: 14, 2: 1}, 4)
    assert floor_divisor(c4, H) == Divisor.make(c4.r, {1: 14}, 4)

    rng = random.Random(103)
    for c in (EXAMPLES[2].curve(), curve_hermitian_gf4()):
        done = 0
        while done < 50:
            H = Divisor(tuple(rng.randrange(-2, 14) for _ in range(c.r)),
                        rng.randrange(-2, 14))
            if dimension(c, H) == 0:
                continue
            done += 1
            flo = floor_divisor(c, H)
            assert (H - flo).is_effective()
            assert floor_divisor(c, flo) == flo
            assert dimension(c, flo) == dimension(c, H)
            assert_minimal(c, flo, H)


def assert_minimal(c, flo, H):
    """Lowering any one coefficient of flo (each P_mu, then P_inf) loses a function of L(H)."""
    for k in range(c.r + 1):
        lower = Divisor(tuple(v - (mu == k) for mu, v in enumerate(flo.s)), flo.t - (k == c.r))
        assert dimension(c, lower) < dimension(c, H), (H, k)


def test_criterion_5_pure_gaps():
    c1 = EXAMPLES[1].curve()
    pl1 = PlaceTuple(1, include_infinity=True)
    assert pure_gap(c1, pl1, (26, 1))
    assert not pure_gap(c1, pl1, (27, 1))

    c2 = EXAMPLES[2].curve()
    assert pure_gap(c2, PlaceTuple(2), (13, 1))
    assert pure_gap(c2, PlaceTuple(2), (14, 1))

    # Published claim for (m, r) = (6, 5): the whole box
    # {8 <= i <= 9} x {1} x {1 <= k <= 3} consists of pure gaps at
    # (P1, P2, Pinf).  Five points are pure gaps, with ell = 3 at the point
    # and at the point less one at every place.  At the corner (9, 1, 3)
    # the P_inf and P1 inequalities hold only with equality, and
    # ell(9P1+P2+3Pinf) = ell(9P1+3Pinf) = 4 > ell(8P1+2Pinf) = 3, so the
    # corner is not a pure gap.  Example 2's curve y^6 = x^5 + x over GF(25)
    # realizes the same profile and must give the same six verdicts.
    prof = RamificationData(6, 5)
    pl3 = PlaceTuple(2, include_infinity=True)
    expected = {coords: coords != (9, 1, 3)
                for coords in itertools.product((8, 9), (1,), (1, 2, 3))}
    for curve in (prof, c2):
        got = {coords: pure_gap(curve, pl3, coords) for coords in expected}
        assert got == expected

    # Independent count on y^m = f(x): L(sP + tPinf) is the sum over
    # 0 <= k < m of y^k times a Riemann-Roch space on P^1 of degree
    # floor((t - r k)/m) + sum_j floor((s_j + k)/m).
    def ell(s, t, m=6, r=5):
        degs = ((t - r * k) // m + sum((sj + k) // m for sj in s)
                for k in range(m))
        return sum(max(0, d + 1) for d in degs)

    corner = [((9, 1, 0, 0, 0), 3, 4), ((9, 0, 0, 0, 0), 3, 4),
              ((8, 0, 0, 0, 0), 2, 3)]
    for s, t, want in corner:
        G = Divisor(s, t)
        assert ell(s, t) == want
        assert dimension(prof, G) == want
        D = evaluation_places(c2, G)
        assert G.degree < len(D)
        assert build_cl(c2, G, D).k == want


def test_criterion_6_oracle_equivalence():
    rng = random.Random(107)
    for c in (curve_hermitian_gf4(), EXAMPLES[2].curve()):
        tuples_checked = 0
        while tuples_checked < 300:
            l = rng.randrange(0, min(c.r, 3) + 1)
            inf = rng.random() < 0.5
            if l == 0 and not inf:
                continue
            pl = PlaceTuple(l, include_infinity=inf)
            coords = [rng.randrange(0, 4 * c.m) for _ in range(pl.arity())]
            tuples_checked += 1

            s = [0] * c.r
            cs = list(coords)
            t = cs.pop() if inf else 0
            for idx, v in enumerate(cs):
                s[idx] = v
            G = Divisor(tuple(s), t)

            base = dimension(c, G)
            drops = []
            for j in range(pl.arity()):
                step_s = [0] * c.r
                step_t = 0
                if inf and j == pl.arity() - 1:
                    step_t = 1
                else:
                    step_s[j] = 1
                drops.append(base - dimension(c, G - Divisor(tuple(step_s), step_t)))
            assert semigroup_member(c, pl, coords) == all(d == 1 for d in drops)

            pos = [max(1, v) for v in coords]
            s2 = [0] * c.r
            cs2 = list(pos)
            t2 = cs2.pop() if inf else 0
            for idx, v in enumerate(cs2):
                s2[idx] = v
            Gp = Divisor(tuple(s2), t2)
            lower = Divisor(tuple(v - 1 if idx < len(cs2) else v
                                  for idx, v in enumerate(s2)),
                            t2 - 1 if inf else 0)
            want = dimension(c, Gp) == dimension(c, lower)
            assert pure_gap(c, pl, pos) == want


def test_criterion_7_code_parameters():
    c4 = EXAMPLES[4].curve()
    H = Divisor.make(c4.r, {1: 14, 2: 1}, 4)
    G4 = H + floor_divisor(c4, H)
    D4 = evaluation_places(c4, G4)
    code4 = build_comega(c4, G4, D4)
    assert (code4.n, code4.k) == (254, 228)
    assert floor_pair_bound(c4, H) == 16
    assert code4.k == code4.n + c4.g - 1 - G4.degree

    c2 = EXAMPLES[2].curve()
    G2 = Divisor.make(c2.r, {1: 26, 2: 1})
    D2 = evaluation_places(c2, G2)
    assert len(D2) == 124
    code2 = build_comega(c2, G2, D2)
    assert (code2.n, code2.k) == (124, 106)
    box2 = GapBox(PlaceTuple(2), (13, 1), (1, 0))
    assert box2.induced_divisor(c2.r) == G2
    assert pure_gap_box_bound(c2, box2) == 12

    c1 = EXAMPLES[1].curve()
    G1 = Divisor.make(c1.r, {1: 51}, 1)
    D1 = evaluation_places(c1, G1)
    assert len(D1) == 368
    code1 = build_comega(c1, G1, D1)
    assert (code1.n, code1.k) == (368, 331)
    box1 = GapBox(PlaceTuple(1, include_infinity=True), (26, 1), (0, 0))
    assert box1.induced_divisor(c1.r) == G1
    assert pure_gap_box_bound(c1, box1) == 24

    # Example-3 arithmetic as pure formula checks (no valid curve)
    prof = RamificationData(6, 5)
    box3 = GapBox(PlaceTuple(2, include_infinity=True), (8, 1, 1), (1, 0, 2))
    G3 = box3.induced_divisor(prof.r)
    assert G3.degree == 20
    assert box_bound_value(prof, box3) == 8
    n3 = 123
    assert n3 + prof.g - 1 - G3.degree == 112


def test_criterion_8_bound_soundness():
    c = curve_hermitian_gf4()
    g = c.g
    checked = 0
    for a, b, t in itertools.product(range(5), repeat=3):
        G = Divisor((a, b), t)
        D = evaluation_places(c, G)
        n = len(D)
        if not 2 * g - 2 < G.degree < n:
            continue
        checked += 1
        cl = build_cl(c, G, D)
        co = build_comega(c, G, D)
        assert orthogonal(cl, co)
        d = brute_force_distance(co)

        bounds = [dict(co.bounds)["goppa_omega"]]

        # every pure-gap box inducing exactly G
        coeffs = [a, b]
        l = len([v for v in coeffs if v > 0])
        if all(v > 0 for v in coeffs[:l]) and all(v == 0 for v in coeffs[l:]):
            for inf in (False, True):
                if inf != (t > 0):
                    continue
                sel = coeffs[:l] + ([t] if inf else [])
                if not sel:
                    continue
                pl = PlaceTuple(l, include_infinity=inf)
                ranges = [range(1, (v + 1) // 2 + 1) for v in sel]
                for bases in itertools.product(*ranges):
                    widths = tuple(v + 1 - 2 * base for v, base in zip(sel, bases))
                    if any(w < 0 for w in widths):
                        continue
                    box = GapBox(pl, tuple(bases), widths)
                    assert box.induced_divisor(c.r) == G
                    if all(pure_gap(c, pl, pt) for pt in box.points()):
                        bounds.append(pure_gap_box_bound(c, box))

        # every floor pair H + floor(H) = G
        for ha, hb, ht in itertools.product(range(5), repeat=3):
            H = Divisor((ha, hb), ht)
            if dimension(c, H) == 0:
                continue
            if H + floor_divisor(c, H) == G:
                bounds.append(floor_pair_bound(c, H))

        for bound in bounds:
            assert d >= bound, f"G={G}: brute d={d} < designed bound {bound}"
    assert checked > 50


def test_criterion_9_determinism(capsys):
    for example in ("1", "2", "3", "4"):
        runs = []
        for _ in range(2):
            code = main(["verify-example", example])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
