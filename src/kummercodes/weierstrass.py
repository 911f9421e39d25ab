"""Closed-form Weierstrass semigroups, pure gaps, gap boxes and floors.

Everything here reads only the (m, r) profile of the curve (genus and
Bezout pair a*r + b*m = 1), so a bare RamificationData serves as well
as a KummerCurve.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .rrlattice import (DEFAULT_BUDGET, BudgetExceededError, Divisor, ceil_div,
                        monomial_divisor, omega_enumerate)


class BadArityError(ValueError):
    pass


class NonPositiveCoordinateError(ValueError):
    pass


class EmptyRiemannRochSpaceError(ValueError):
    pass


class PlaceTuple(NamedTuple):
    """Selection P_1..P_l, optionally followed by P_inf."""

    l: int
    include_infinity: bool = False

    def arity(self) -> int:
        return self.l + (1 if self.include_infinity else 0)

    def validate(self, r: int) -> None:
        if not 0 <= self.l <= r:
            raise BadArityError(f"l={self.l} out of [0, {r}]")
        if self.arity() == 0:
            raise BadArityError("at least one place must be selected")


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
        raise BadArityError(f"expected {places.arity()} coordinates, got {len(coords)}")
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
        raise NonPositiveCoordinateError("pure gap coordinates must be >= 1")
    return all(v > 0 for v in _member_conditions(curve, ss, t))


def pure_gaps(curve, places: PlaceTuple, bound: int,
              budget: int = DEFAULT_BUDGET) -> List[Tuple[int, ...]]:
    """All pure gaps in [1, bound]^arity, in itertools.product order.

    Every coordinate of a pure gap is a one-point gap at its place
    (Homma-Kim; Carvalho-Torres), hence at most 2g - 1, and the gaps at
    P_2..P_r are those at P_1.  So only the product of the sorted
    one-point gap lists up to min(bound, 2g - 1) is a candidate; a product
    over the budget is refused before any test.  Pure gaps are symmetric in
    the finite coordinates (ell depends only on their multiset), so only
    nondecreasing finite parts are tested, and the hits' permutations are
    sorted into product order.  The one-point scans are budgeted by
    one_point_gaps.
    """
    places.validate(curve.r)
    limit = min(bound, 2 * curve.g - 1)
    if limit < 1:
        return []
    finite_axis = one_point_gaps(curve, "P1", limit)
    tails = ([(t,) for t in one_point_gaps(curve, "Pinf", limit)]
             if places.include_infinity else [()])
    work = len(finite_axis) ** places.l * len(tails)
    if work > budget:
        raise BudgetExceededError(f"{work} candidate tuples exceed budget {budget}")
    hits = set()
    for ss in itertools.combinations_with_replacement(finite_axis, places.l):
        for tail in tails:
            if pure_gap(curve, places, ss + tail):
                hits.update(perm + tail for perm in itertools.permutations(ss))
    return sorted(hits)


def one_point_gaps(curve, which: str, limit: int) -> List[int]:
    """Sorted gap numbers (one-place pure gaps, all <= 2g - 1) at P_1 or P_inf up to `limit`.

    Each of the min(limit, 2g - 1) candidates is one test, so a scan over
    DEFAULT_BUDGET is refused before it starts.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    places = {"P1": PlaceTuple(1), "Pinf": PlaceTuple(0, True)}.get(which)
    if places is None:
        raise ValueError(f"unknown place selector {which!r}")
    work = min(limit, 2 * curve.g - 1)
    if work > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"{work} one-point gap candidates exceed budget {DEFAULT_BUDGET}")
    return [s for s in range(1, work + 1) if pure_gap(curve, places, (s,))]


def box_bound_value(curve, box: GapBox) -> int:
    """The designed-distance value deg(G) - (2g - 2) + sum(widths) + arity.

    deg(G) = sum(2*base + width - 1), so this is 2*sum(corner) - (2g - 2).
    """
    return 2 * sum(box.corner()) - (2 * curve.g - 2)


def box_search(curve, places: PlaceTuple, search_bound: int,
               budget: int = DEFAULT_BUDGET) -> Optional[Tuple[GapBox, Divisor]]:
    """Best pure-gap box with coordinates in [1, search_bound].

    Maximizes the designed-distance value 2*sum(corner) - (2g - 2), so only
    boxes up to a pure gap of largest sum (a one-point box) are ranked; those
    corners times the pure gaps are refused over the budget.  Ties go to the
    smallest induced degree (least sum of base), then the lexicographically
    largest base (the extreme gap over its mirror images), then largest widths.
    """
    gaps = pure_gaps(curve, places, search_bound, budget)
    if not gaps:
        return None
    top = max(map(sum, gaps))
    corners = [hi for hi in gaps if sum(hi) == top]
    work = len(corners) * len(gaps)
    if work > budget:
        raise BudgetExceededError(f"{work} candidate boxes exceed budget {budget}")
    gap_set = set(gaps)
    boxes = (GapBox(places, lo, tuple(b - a for a, b in zip(lo, hi)))
             for hi in corners for lo in gaps if all(a <= b for a, b in zip(lo, hi)))
    best = min((box for box in boxes if all(pt in gap_set for pt in box.points())),
               key=lambda box: (sum(box.base), tuple(-c for c in box.base),
                                tuple(-w for w in box.widths)))
    return best, best.induced_divisor(curve.r)


def floor_divisor(curve, H: Divisor) -> Divisor:
    """The unique minimum-degree divisor with the same Riemann-Roch space.

    Coordinate-wise maxima of pole orders over the enumerated basis;
    defined only when ell(H) > 0.
    """
    pts = omega_enumerate(curve, H)
    if not pts:
        raise EmptyRiemannRochSpaceError("ell(H) = 0; floor undefined")
    m, r = curve.m, curve.r
    s1 = max(-p.i for p in pts)
    s_rest = [max(-p.i - m * p.j[mu] for p in pts) for mu in range(r - 1)]
    t = max(r * p.i + m * sum(p.j) for p in pts)
    return Divisor(tuple([s1] + s_rest), t)


def floor_via_gcd(curve, H: Divisor) -> Divisor:
    """Floor as minus the gcd of the basis monomial divisors (oracle route)."""
    divs = [monomial_divisor(curve, pt) for pt in omega_enumerate(curve, H)]
    if not divs:
        raise EmptyRiemannRochSpaceError("ell(H) = 0; floor undefined")
    s = tuple(-min(d.s[mu] for d in divs) for mu in range(curve.r))
    t = -min(d.t for d in divs)
    return Divisor(s, t)
