"""Reproduction checks for the four reference code constructions.

EXAMPLES holds each construction and every value claimed for it;
verify_example(N) checks row N's claims in a fixed order and gives
(all_passed, PASS/FAIL lines), which are deterministic.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, NamedTuple, Optional, Tuple

from .agcode import build_comega, designed_distance, evaluation_places
from .curve import GcdViolationError, KummerCurve, find_roots
from .gf import FiniteField
from .rrlattice import Divisor, RamificationData, monomial_divisor, omega_enumerate
from .weierstrass import GapBox, PlaceTuple, box_bound_value, box_search, floor_divisor, pure_gap

# Pinned moduli, low-degree-first base-p digits; FiniteField checks irreducibility.
GF25 = (5, 2, (2, 0, 1))           # x^2 + 2
GF81 = (3, 4, (2, 1, 0, 0, 1))     # x^4 + x + 2
GF64 = (2, 6, (1, 1, 0, 0, 0, 0, 1))  # x^6 + x + 1

Coords = Tuple[int, ...]
DivisorSpec = Tuple[Dict[int, int], int]  # Divisor.make's finite coefficients, then t


class Example(NamedTuple):
    """A curve y^m = f(x)^lam over GF(p^e) and its claims (None: not claimed).
    A `profile` (m, r) marks a curve that violates gcd(m, r*lam) = 1: it must
    be rejected, and the other claims are read on the bare profile."""

    gf: Tuple[int, int, Coords]         # p, e, modulus
    f: Coords                           # coefficients of f(x), low degree first
    m: int
    lam: int
    genus: int
    distance: int                       # designed distance of C_Omega
    code: Tuple[int, int]               # [n, k] of C_Omega; for a profile, the dimension law
    places: Optional[int] = None        # number of rational places
    f_text: Optional[str] = None        # f(x) as the NOTE on a rejected curve prints it
    profile: Optional[Tuple[int, int]] = None
    verdicts: Optional[Dict[Coords, bool]] = None  # pure gap or not, at box.places
    box: Optional[GapBox] = None        # the best box that box_search finds
    published_box: Optional[GapBox] = None  # a box claimed to hold only pure gaps
    refutation: Optional[str] = None    # NOTE printed when published_box fails
    G: Optional[DivisorSpec] = None     # the divisor the box induces
    H: Optional[DivisorSpec] = None     # G = H + floor(H)
    basis: Optional[Tuple[Coords, ...]] = None  # pole orders (s_1..s_r, t) of L(H)'s basis
    floor: Optional[DivisorSpec] = None

    def curve(self) -> KummerCurve:
        """The curve itself; GcdViolationError when it is rejected."""
        F = FiniteField(*self.gf)
        return KummerCurve(F, self.m, self.lam, find_roots(F, self.f))


EXAMPLES: Dict[int, Example] = {
    1: Example(GF81, (0, 1, 0, 0, 0, 0, 0, 0, 0, 1), m=5, lam=1, genus=16, places=370,
               verdicts={(26, 1): True, (27, 1): False},
               box=GapBox(PlaceTuple(1, include_infinity=True), (26, 1), (0, 0)),
               G=({1: 51}, 1), distance=24, code=(368, 331)),
    2: Example(GF25, (0, 1, 0, 0, 0, 1), m=6, lam=1, genus=10, places=126,
               verdicts={(13, 1): True, (14, 1): True},
               box=GapBox(PlaceTuple(2), (13, 1), (1, 0)),
               G=({1: 26, 2: 1}, 0), distance=12, code=(124, 106)),
    3: Example(GF25, (0, 4, 0, 0, 0, 1), m=6, lam=4, f_text="x^5-x", profile=(6, 5), genus=10,
               published_box=GapBox(PlaceTuple(2, include_infinity=True), (8, 1, 1), (1, 0, 2)),
               refutation="the published box overreaches: the corner (9,1,3) satisfies both "
                          "defining inequalities with equality, and the dimension count "
                          "confirms it is not a pure gap",
               G=({1: 16, 2: 1}, 3), distance=8, code=(123, 112)),
    4: Example(GF64, (0, 1, 1, 0, 1), m=9, lam=1, genus=12, places=257,
               H=({1: 14, 2: 1}, 4),
               basis=((14, -4, -4, -4, -2), (13, -5, -5, -5, 2), (9, 0, 0, 0, -9),
                      (8, -1, -1, -1, -5), (7, -2, -2, -2, -1), (6, -3, -3, -3, 3),
                      (0, 0, 0, 0, 0), (-1, -1, -1, -1, 4)),
               floor=({1: 14}, 4), distance=16, code=(254, 228)),
}

curve_example_1 = EXAMPLES[1].curve  # y^5 = x^9 + x over GF(81): quotient of the Hermitian curve
curve_example_2 = EXAMPLES[2].curve  # y^6 = x^5 + x over GF(25): the Hermitian curve for q = 5
curve_example_4 = EXAMPLES[4].curve  # y^9 = x^4 + x^2 + x over GF(64): a maximal curve


def _point(coords: Coords) -> str:
    return "(" + ",".join(map(str, coords)) + ")"


def verify_example(number: int) -> Tuple[bool, List[str]]:
    """Check the claims present in EXAMPLES[number], always in the same order."""
    if number not in EXAMPLES:
        raise ValueError(f"no example {number}; choose from {min(EXAMPLES)}-{max(EXAMPLES)}")
    ex, lines = EXAMPLES[number], []

    def check(label: str, ok: bool, detail: str) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    if ex.profile:
        m, r = ex.profile
        lines.append(f"NOTE the curve y^{m}=({ex.f_text})^{ex.lam} over GF({ex.gf[0] ** ex.gf[1]}) "
                     f"violates gcd(m, r*lambda)=1 (gcd({m},{r * ex.lam})={gcd(m, r * ex.lam)}); "
                     f"only the (m,r)=({m},{r}) formula claims are checked and code "
                     "construction is skipped")
        rejected = False
        try:
            ex.curve()
        except GcdViolationError:
            rejected = True
        check("curve rejected", rejected, "GcdViolation raised")
        curve = RamificationData(m, r)
    else:
        curve = ex.curve()
    check("genus", curve.g == ex.genus, f"g={curve.g}")
    if ex.places:
        check("rational places", curve.num_places() == ex.places, f"N={curve.num_places()}")
    if ex.verdicts:
        got = {c: pure_gap(curve, ex.box.places, c) for c in ex.verdicts}
        gaps = [_point(c) for c, v in ex.verdicts.items() if v]
        detail = (" ".join(f"{_point(c)}->{v}" for c, v in got.items())
                  if not all(ex.verdicts.values()) else f"{list(got.values())}")
        check(f"pure gap{'s' * (len(gaps) > 1)} {','.join(gaps)}", got == ex.verdicts, detail)
    if ex.published_box:
        box = ex.published_box
        pts = list(box.points())
        bad = sorted(c for c in pts if not pure_gap(curve, box.places, c))
        label = "x".join(f"{{{b}..{b + w}}}" if w else f"{{{b}}}"
                         for b, w in zip(box.base, box.widths))
        check(f"pure gap box {label}", not bad, f"{len(pts) - len(bad)}/{len(pts)} tuples are "
              "pure gaps" + (f"; failing: {bad}" if bad else ""))
        if bad:
            lines.append(f"NOTE {ex.refutation}")
        G = box.induced_divisor(curve.r)
        bound = box_bound_value(curve, box)  # unvalidated: the box may hold non-gaps
    if ex.box:
        box, G = box_search(curve, ex.box.places, 40)
        check("box search", box == ex.box, f"base={box.base} widths={box.widths}")
        bound = designed_distance(curve, G, "pure_gap_box", box=box)
    if ex.H:
        H = Divisor.make(curve.r, *ex.H)
        pts = omega_enumerate(curve, H)
        check("ell(H)", len(pts) == len(ex.basis), f"ell={len(pts)}")
        orders = {-monomial_divisor(curve, p) for p in pts}
        expected = {Divisor(c[:-1], c[-1]) for c in ex.basis}
        check("basis listing", orders == expected,
              f"{len(orders & expected)}/{len(expected)} tuples match")
        flo = floor_divisor(curve, H)
        check("floor", flo == Divisor.make(curve.r, *ex.floor), f"floor={flo}")
        G = H + flo
        bound = designed_distance(curve, G, "floor_pair", H=H)
    if ex.G:
        check("divisor G", G == Divisor.make(curve.r, *ex.G), f"G={G}")
    check("designed distance", bound == ex.distance, f"d_omega>={bound}")
    if ex.profile:
        n, k = ex.code[0], ex.code[0] + curve.g - 1 - G.degree
        check("dimension formula", k == ex.code[1], f"n={n} k_omega={k}")
    else:
        code = build_comega(curve, G, evaluation_places(curve, G))
        check("code parameters", (code.n, code.k) == ex.code, f"[{code.n},{code.k}]")
        if ex.box:  # a box example names its evaluation set
            lines.append(f"INFO evaluation set: all {code.n} places outside supp(G)"
                         + (", including the place at infinity" if G.t == 0 else ""))
    return not any(line.startswith("FAIL") for line in lines), lines
