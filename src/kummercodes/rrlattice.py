"""Riemann-Roch spaces as lattice point sets.

For a divisor G supported on the distinguished places P_1..P_r, P_inf of
the curve y^m = f(x)^lambda, L(G) has a monomial basis indexed by integer
tuples (i, j_2..j_r), the exponents of z and of the factors x - alpha_mu.
They fall into runs by residue class of i mod m, which give the dimension,
the basis and each monomial's divisor by exact integer arithmetic on the
(m, r) profile alone; agcode evaluates the monomials over the field.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple


DEFAULT_BUDGET = 1 << 24


def check_budget(work: int, what: str, budget: int = DEFAULT_BUDGET, shown: str = "") -> None:
    """The one refusal of every search: its estimated work, of units `what`, over
    the budget; `shown` prints a count whose digits would not do (a power)."""
    if work > budget:
        raise ValueError(f"{shown or work} {what} exceed budget {budget}")


def ceil_div(a: int, b: int) -> int:
    """ceil(a/b) for integers, b > 0."""
    return -((-a) // b)


class RamificationData:
    """The (m, r) profile shared by all curves y^m = f(x)^lambda, deg f = r: all that
    the lattice and semigroup layers read, so they accept a bare profile when no
    valid curve exists over the field at hand."""

    def __init__(self, m: int, r: int):
        if m < 2 or r < 1 or math.gcd(m, r) != 1:
            raise ValueError(f"need m >= 2, r >= 1, gcd(m, r) = 1; got m={m}, r={r}")
        self.m, self.r = m, r
        self.g = (r - 1) * (m - 1) // 2
        # a*r + b*m = 1, a the least nonnegative residue: the basis stays byte-identical
        self.a = pow(r, -1, m)
        self.b = (1 - self.a * r) // m

    def pole_order(self, i: int, j: Tuple[int, ...]) -> int:
        """The pole order at P_inf of the monomial z^i prod (x - alpha_mu)^{j_mu}."""
        return self.r * i + self.m * sum(j)


class Divisor(NamedTuple):
    """Integer divisor s_1 P_1 + ... + s_r P_r + t P_inf."""

    s: Tuple[int, ...]
    t: int

    @staticmethod
    def make(r: int, coeffs: dict | None = None, t: int = 0) -> "Divisor":
        """Divisor from {mu: coefficient of P_mu} for mu in [1, r], plus t P_inf."""
        s = [0] * r
        for mu, c in (coeffs or {}).items():
            if not 1 <= mu <= r:
                raise ValueError(f"place index {mu} out of range [1, {r}]")
            s[mu - 1] = c
        return Divisor(tuple(s), t)

    @property
    def degree(self) -> int:
        return sum(self.s) + self.t

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(a + b for a, b in zip(self.s, other.s)), self.t + other.t)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(a - b for a, b in zip(self.s, other.s)), self.t - other.t)

    def __neg__(self) -> "Divisor":
        return Divisor(tuple(-a for a in self.s), -self.t)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.s) and self.t >= 0

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.s) + f" {self.t}"


class LatticePoint(NamedTuple):
    """Exponent tuple of the monomial z^i prod (x-alpha_mu)^{j_mu}."""

    i: int
    j: Tuple[int, ...]

    def shift(self, m: int, u: int) -> "LatticePoint":
        """The point u steps on along its residue class of i mod m: (i + m*u, j - u)."""
        return LatticePoint(self.i + m * u, tuple(jm - u for jm in self.j))


def monomial_divisor(curve: RamificationData, pt: LatticePoint) -> Divisor:
    """Principal divisor of the basis monomial indexed by pt (degree 0)."""
    return Divisor((pt.i, *(pt.i + curve.m * j for j in pt.j)), -curve.pole_order(*pt))


def residue_classes(curve: RamificationData, G: Divisor) -> List[Tuple[LatticePoint, int]]:
    """The basis index set of L(G) by class of i mod m (Maharaj's m Riemann-Roch spaces
    of the rational function field): for each i0 in [-s_1, -s_1 + m) whose class holds
    a point, the point (i0, c), c_mu = ceil((-i0 - s_mu)/m), and the number n > 0 of its
    class's points (i0 + m*u, c - u).  A step in u adds m to the pole order at P_inf,
    which stays <= t.  The m*r ceilings are refused over DEFAULT_BUDGET first."""
    if len(G.s) != curve.r:
        raise ValueError(f"divisor has {len(G.s)} finite coefficients, curve has r={curve.r}")
    check_budget(curve.m * curve.r, "residue-class terms")
    m, (s1, *rest), classes = curve.m, G.s, []
    for i0 in range(-s1, m - s1):
        c = tuple([-((i0 + sm) // m) for sm in rest])  # ceil_div(-i0 - sm, m), no call a class
        n = (G.t - curve.pole_order(i0, c)) // m + 1
        if n > 0:
            classes.append((LatticePoint(i0, c), n))
    return classes


def omega_enumerate(curve: RamificationData, G: Divisor) -> List[LatticePoint]:
    """All lattice points of the basis index set for L(G), sorted by i; refused when
    ell(G), the number of points it would make, exceeds DEFAULT_BUDGET."""
    classes = residue_classes(curve, G)
    check_budget(sum(n for _, n in classes), "basis monomials")
    # i0 rises across the classes, so taking them u by u lists i in order.
    return [pt.shift(curve.m, u) for u in range(max((n for _, n in classes), default=0))
            for pt, n in classes if u < n]


def dimension(curve: RamificationData, G: Divisor) -> int:
    """ell(G): the sizes of the residue classes summed, O(m*r) at any degree."""
    return sum(n for _, n in residue_classes(curve, G))
