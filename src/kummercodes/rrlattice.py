"""Riemann-Roch spaces as lattice point sets.

For a divisor supported on the distinguished places P_1..P_r, P_inf of
the curve y^m = f(x)^lambda, the space L(G) has a monomial basis indexed
by integer tuples (i, j_2..j_r): the exponents of z and of the linear
factors x - alpha_mu.  Enumerating those tuples gives the dimension, the
basis and the divisor of each basis monomial, with exact integer
arithmetic on the (m, r) profile alone; the field-level evaluation of the
monomials at rational places lives in agcode.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple


class BudgetExceededError(ValueError):
    pass


DEFAULT_BUDGET = 1 << 24


def ceil_div(a: int, b: int) -> int:
    """ceil(a/b) for integers, b > 0."""
    return -((-a) // b)


class RamificationData:
    """The (m, r) profile shared by all curves y^m = f(x)^lambda, deg f = r.

    The lattice and semigroup layers need nothing else, so they accept a
    bare profile when no valid curve exists over the field at hand.
    """

    def __init__(self, m: int, r: int):
        if m < 2 or r < 1 or math.gcd(m, r) != 1:
            raise ValueError(f"need m >= 2, r >= 1, gcd(m, r) = 1; got m={m}, r={r}")
        self.m = m
        self.r = r
        self.g = (r - 1) * (m - 1) // 2
        # a*r + b*m = 1 with a the least nonnegative residue; pinning a
        # makes the basis monomials byte-identical across runs.
        self.a = pow(r, -1, m)
        self.b = (1 - self.a * r) // m


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
                raise IndexError(f"place index {mu} out of range [1, {r}]")
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


def omega_enumerate(curve: RamificationData, G: Divisor) -> List[LatticePoint]:
    """All lattice points of the basis index set for L(G), sorted by i.

    For each i >= -s_1 the remaining exponents are forced by
    j_mu = ceil((-i - s_mu)/m); the point survives iff the pole order at
    infinity, r*i + m*sum(j), is at most t.  That pole order gains
    exactly m over any m consecutive values of i, so the scan stops once
    m consecutive candidates fail, after at most max(deg G, 0) + m + 1
    of them; it is refused when that exceeds DEFAULT_BUDGET.
    """
    m, r = curve.m, curve.r
    s, t = G.s, G.t
    if len(s) != r:
        raise ValueError(f"divisor has {len(s)} finite coefficients, curve has r={r}")
    work = max(G.degree, 0) + m + 1
    if work > DEFAULT_BUDGET:
        raise BudgetExceededError(f"{work} lattice candidates exceed budget {DEFAULT_BUDGET}")
    points = []
    i = -s[0]
    misses = 0
    while misses < m:
        js = tuple(ceil_div(-i - s[mu], m) for mu in range(1, r))
        if r * i + m * sum(js) <= t:
            points.append(LatticePoint(i, js))
            misses = 0
        else:
            misses += 1
        i += 1
    return points


def dimension(curve: RamificationData, G: Divisor) -> int:
    """ell(G) = number of basis lattice points."""
    return len(omega_enumerate(curve, G))


def monomial_divisor(curve: RamificationData, pt: LatticePoint) -> Divisor:
    """Principal divisor of the basis monomial indexed by pt (degree 0)."""
    m, r = curve.m, curve.r
    s = [pt.i] + [pt.i + m * j for j in pt.j]
    return Divisor(tuple(s), -(r * pt.i + m * sum(pt.j)))
