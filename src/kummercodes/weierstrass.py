"""Closed-form Weierstrass semigroups, pure gaps, gap boxes, floors and their bounds.

Everything here reads only the (m, r) profile of the curve (genus and Bezout pair
a*r + b*m = 1), so a bare RamificationData serves as well as a KummerCurve.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .rrlattice import (DEFAULT_BUDGET, Divisor, ceil_div, check_budget,
                        monomial_divisor, residue_classes)


class PlaceTuple(NamedTuple):
    """Selection P_1..P_l, optionally followed by P_inf."""

    l: int
    include_infinity: bool = False

    def arity(self) -> int:
        return self.l + (1 if self.include_infinity else 0)

    def validate(self, r: int) -> None:
        if not 0 <= self.l <= r:
            raise ValueError(f"l={self.l} out of [0, {r}]")
        if self.arity() == 0:
            raise ValueError("at least one place must be selected")


class GapBox(NamedTuple):
    """Axis-aligned box of pure gaps: coordinates base_i .. base_i + width_i."""

    places: PlaceTuple
    base: Tuple[int, ...]
    widths: Tuple[int, ...]

    def corner(self) -> Tuple[int, ...]:
        return tuple(b + w for b, w in zip(self.base, self.widths))

    def points(self) -> Iterable[Tuple[int, ...]]:
        return itertools.product(*(range(b, b + w + 1) for b, w in zip(self.base, self.widths)))

    def coefficients(self) -> List[int]:
        """2*base_i + width_i - 1: the coefficient of G at the i-th place."""
        return [2 * b + w - 1 for b, w in zip(self.base, self.widths)]

    def induced_divisor(self, r: int) -> Divisor:
        """G = sum coefficients_i Q_i over the selected places."""
        coeffs = self.coefficients()
        t = coeffs.pop() if self.places.include_infinity else 0
        return Divisor.make(r, dict(enumerate(coeffs, 1)), t)


def _split_coords(places: PlaceTuple, coords: Sequence[int]) -> Tuple[List[int], Optional[int]]:
    if len(coords) != places.arity():
        raise ValueError(f"expected {places.arity()} coordinates, got {len(coords)}")
    if places.include_infinity:
        return list(coords[:-1]), coords[-1]
    return list(coords), None


def _member_conditions(curve, ss: List[int], t: Optional[int]) -> List[int]:
    """Left-minus-right values of the membership inequalities (<= 0 means satisfied).

    ss lists the coordinates at P_1..P_l; t is the coordinate at P_inf or
    None.  Places beyond l carry coefficient 0 and are folded into the
    (r - l) ceiling term.  Every membership and gap test reads these.
    """
    m, r, a, b = curve.m, curve.r, curve.a, curve.b
    l = len(ss)
    vals = []
    if t is not None:
        # The P_inf condition sums over the other selected finite places
        # (all but the first) plus the r - l unselected ones.
        s1 = ss[0] if ss else 0
        lhs = m * sum(ceil_div(-a * t - si, m) for si in ss[1:])
        lhs += m * (r - max(l, 1)) * ceil_div(-a * t, m)
        vals.append(lhs - (s1 + (a + b * m) * t))
    for j in range(l):
        lhs = m * sum(ceil_div(ss[j] - ss[i], m) for i in range(l) if i != j)
        lhs += m * (r - l) * ceil_div(ss[j], m)
        rhs = r * ss[j] + (t if t is not None else 0)
        vals.append(lhs - rhs)
    return vals


def semigroup_member(curve, places: PlaceTuple, coords: Sequence[int]) -> bool:
    """Whether coords is realized as a pole-order tuple at the places."""
    places.validate(curve.r)
    ss, t = _split_coords(places, coords)
    if any(c < 0 for c in coords):
        return False
    return all(v <= 0 for v in _member_conditions(curve, ss, t))


def pure_gap(curve, places: PlaceTuple, coords: Sequence[int]) -> bool:
    """Whether coords is a pure gap: every inequality strictly reversed (at one place, a gap)."""
    places.validate(curve.r)
    ss, t = _split_coords(places, coords)
    if any(c < 1 for c in coords):
        raise ValueError("pure gap coordinates must be >= 1")
    return all(v > 0 for v in _member_conditions(curve, ss, t))


def pure_gaps(curve, places: PlaceTuple, bound: int,
              budget: int = DEFAULT_BUDGET) -> List[Tuple[int, ...]]:
    """All pure gaps in [1, bound]^arity, in itertools.product order.

    Every coordinate of a pure gap is a one-point gap at its place
    (Homma-Kim; Carvalho-Torres), hence at most 2g - 1, and the gaps at
    P_2..P_r are those at P_1.  So only the product of the sorted
    one-point gap lists up to min(bound, 2g - 1) is a candidate.  A place
    has exactly g gaps, so that product has at most min(bound, g)^arity
    tuples; a bound over the budget is refused before any test, one-point
    scans included.  Pure gaps are symmetric in the finite coordinates
    (ell depends only on their multiset), so only nondecreasing finite
    parts are tested, each once without P_inf: at P_inf coordinate t those
    values drop by t, so only the tails below their minimum get the full
    test.  The hits' permutations are sorted into product order.  The
    one-point scans are budgeted by one_point_gaps.
    """
    places.validate(curve.r)
    limit = min(bound, 2 * curve.g - 1)
    if limit < 1:
        return []
    check_budget(min(limit, curve.g) ** places.arity(), "candidate tuples", budget)
    finite_axis = one_point_gaps(curve, PlaceTuple(1), limit)
    tails = ([(t,) for t in one_point_gaps(curve, PlaceTuple(0, True), limit)]
             if places.include_infinity else [()])
    hits = set()
    for ss in map(list, itertools.combinations_with_replacement(finite_axis, places.l)):
        room = min(_member_conditions(curve, ss, None), default=limit + 1)
        for tail in tails:  # sum(tail) is t, or 0 without P_inf
            if sum(tail) < room and (not tail or min(_member_conditions(curve, ss, *tail)) > 0):
                hits.update(perm + tail for perm in itertools.permutations(ss))
    return sorted(hits)


def one_point_gaps(curve, places: PlaceTuple, limit: int) -> List[int]:
    """Sorted gap numbers (one-place pure gaps, all <= 2g - 1) at one place, up to `limit`.

    Each of the min(limit, 2g - 1) candidates is one test, so a scan over
    DEFAULT_BUDGET is refused before it starts.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    work = min(limit, 2 * curve.g - 1)
    check_budget(work, "one-point gap candidates")
    return [s for s in range(1, work + 1) if pure_gap(curve, places, (s,))]


def box_bound_value(curve, box: GapBox) -> int:
    """The designed-distance value deg(G) - (2g - 2) + sum(widths) + arity.

    deg(G) = sum(2*base + width - 1), so this is 2*sum(corner) - (2g - 2).
    """
    return 2 * sum(box.corner()) - (2 * curve.g - 2)


def pure_gap_box_bound(curve, box: GapBox) -> int:
    """box_bound_value, the designed distance of C_Omega at G = box.induced_divisor,
    once every point of the box is checked to be a pure gap."""
    for pt in box.points():
        if not pure_gap(curve, box.places, pt):
            raise ValueError(f"{pt} in the box is not a pure gap")
    return box_bound_value(curve, box)


def box_search(curve, places: PlaceTuple, search_bound: int,
               budget: int = DEFAULT_BUDGET) -> Optional[Tuple[GapBox, Divisor]]:
    """Best pure-gap box with coordinates in [1, search_bound].

    Maximizes the designed-distance value 2*sum(corner) - (2g - 2), so only
    boxes up to a pure gap of largest sum (a one-point box) are ranked; those
    corners times the pure gaps are refused over the budget.  Ties go to the
    smallest induced degree (least sum of base), then the lexicographically
    largest base (the extreme gap over its mirror images), then largest widths:
    the first base in that order with an all-gap box to some corner returns
    its widest one (a corner is its own width-0 box, so one always does).
    """
    gaps = pure_gaps(curve, places, search_bound, budget)
    if not gaps:
        return None
    top = max(map(sum, gaps))
    corners = [hi for hi in gaps if sum(hi) == top]
    check_budget(len(corners) * len(gaps), "candidate boxes", budget)
    gap_set = set(gaps)
    for lo in sorted(reversed(gaps), key=sum):  # gaps and corners are in product order
        for hi in reversed(corners):
            box = GapBox(places, lo, tuple(b - a for a, b in zip(lo, hi)))
            if min(box.widths) >= 0 and all(pt in gap_set for pt in box.points()):
                return box, box.induced_divisor(curve.r)


def floor_divisor(curve, H: Divisor) -> Divisor:
    """The unique minimum-degree divisor with the same Riemann-Roch space: minus the
    gcd (coordinate-wise minimum) of the basis monomials' divisors; needs ell(H) > 0.
    Each residue class attains it at its first point, at P_inf at its last one."""
    ends = [(monomial_divisor(curve, pt), monomial_divisor(curve, pt.shift(curve.m, n - 1)))
            for pt, n in residue_classes(curve, H)]
    if not ends:
        raise ValueError("ell(H) = 0; floor undefined")
    return -Divisor(tuple(map(min, zip(*(a.s for a, _ in ends)))), min(b.t for _, b in ends))


def floor_pair_bound(curve, H: Divisor) -> int:
    """Designed distance 2 deg(H) - (2g - 2) of C_Omega at G = H + floor(H), H effective."""
    if not H.is_effective():
        raise ValueError("H must be effective")
    return 2 * H.degree - (2 * curve.g - 2)
