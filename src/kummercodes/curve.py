"""Validated model of the Kummer extension y^m = f(x)^lambda.

f(x) = prod (x - alpha_i) with r distinct roots in the base field and
gcd(m, r*lambda) = 1, so the places over the roots and the place at
infinity are totally ramified.  The curve extends its (m, r) profile
(genus and Bezout pair a, b) with the field, the roots and the Bezout
pair A, B that normalizes the auxiliary function z = y^A f(x)^B with
divisor P_1 + ... + P_r - r*P_inf.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .gf import FiniteField
from .rrlattice import Divisor, RamificationData


class GcdViolationError(ValueError):
    pass


class Place(NamedTuple):
    """A rational place: P_inf, a ramified P_mu, or an affine point, with
    kind_rank 0, 1 and 2; mu is nonzero at P_mu alone.

    The sort order (infinity, then ramified by mu, then affine by the
    codec integers of x then y) is the canonical place ordering used by
    every listing and matrix in the package.
    """

    kind_rank: int
    mu: int = 0
    x: int = 0
    y: int = 0

    @staticmethod
    def infinity() -> "Place":
        return Place(0)

    @staticmethod
    def ramified(mu: int) -> "Place":
        return Place(1, mu=mu)

    def __str__(self) -> str:
        if self.kind_rank == 0:
            return "Pinf"
        if self.kind_rank == 1:
            return f"P{self.mu}"
        return f"({self.x},{self.y})"


class KummerCurve(RamificationData):
    """y^m = f(x)^lambda over a finite field, with explicit roots of f."""

    def __init__(self, field: FiniteField, m: int, lam: int, roots: Sequence[int]):
        roots = [field.check(a) for a in roots]
        if not roots:
            raise ValueError("f needs at least one root")
        if len(set(roots)) != len(roots):
            raise ValueError("roots of f must be pairwise distinct")
        if m < 2:
            raise ValueError(f"m={m} must be >= 2")
        if lam < 1:
            raise ValueError(f"lambda={lam} must be >= 1")
        r = len(roots)
        if math.gcd(m, r * lam) != 1:
            raise GcdViolationError(f"gcd(m, r*lambda) = gcd({m}, {r * lam}) != 1")
        if m % field.p == 0:
            raise ValueError(f"characteristic {field.p} divides m={m}")
        super().__init__(m, r)

        self.field = field
        self.lam = lam
        self.roots = tuple(roots)

        # A*lambda + B*m = 1 with A the least nonnegative residue, pinned
        # like a so that z is byte-identical across runs.
        self.A = pow(lam, -1, m)
        self.B = (1 - self.A * lam) // m

    def num_places(self) -> int:
        return 1 + self.r + sum(len(ys) for _, ys in self.fibres())

    def iter_places(self) -> Iterator[Place]:
        """The rational places in canonical order, made one at a time."""
        yield Place.infinity()
        yield from map(Place.ramified, range(1, self.r + 1))
        new = tuple.__new__  # Place(2, x=x0, y=y0) without the per-call keyword handling
        for x0, ys in self.fibres():
            for y0 in ys:
                yield new(Place, (2, 0, x0, y0))

    def fibres(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """The affine points as (x0, sorted ys) by increasing x0, for each x0
        off the roots with a point over it: the one rule for affine points.

        log f(x) is read from the t nonzero terms of f = prod (x - alpha),
        expanded here in O(r^2): f(g^k) is the sum of c_i g^(i k), O(q t) in
        all, and f(0) is c_0.  y^m = c has d = gcd(m, q-1) roots, with logs
        (log c / d) * (m/d)^-1 mod (q-1)/d plus multiples of (q-1)/d, when
        d | log c, and none otherwise: one coset of the d-th roots of unity.
        Each of the (q-1)/d cosets is sorted once, the first time a fibre
        needs it, and every fibre in it gets that same tuple."""
        F = self.field
        order, exp, log = F.q - 1, F._exp, F._log
        coeffs = [1]  # f, low degree first: times (x - alpha) for each root
        for alpha in self.roots:
            neg = F.neg(alpha)
            coeffs = list(map(F.add, [F.mul(neg, c) for c in coeffs] + [0], [0] + coeffs))
        log_f_at = [log[v] for v in _at_powers(F, coeffs)]
        d = math.gcd(self.m, order)
        period = order // d
        inv_m = pow(self.m // d, -1, period)
        cosets: List[Optional[Tuple[int, ...]]] = [None] * period
        for x0 in sorted(set(range(F.q)).difference(self.roots)):
            log_c = (log_f_at[log[x0]] if x0 else log[coeffs[0]]) * self.lam % order
            if log_c % d == 0:
                k = log_c // d * inv_m % period
                ys = cosets[k]
                if ys is None:
                    ys = cosets[k] = tuple(sorted(exp[k:order:period]))
                yield x0, ys

    def _root_logs(self, xs: Sequence[int]) -> List[Iterator[int]]:
        """log(x - alpha) over xs for each root alpha, one lazy pass per root;
        log 0 reads as 0."""
        F = self.field
        return [map(F._log.__getitem__, map(F.add, xs, repeat(F.neg(alpha))))
                for alpha in self.roots]

    def place_logs(self, places: Sequence[Place]) -> Iterator[List[int]]:
        """Log vectors L of rational places over the exponents (i, j_2..j_r): a
        monomial z^i prod (x - alpha_nu)^{j_nu} with no zero at a place takes the
        value g^<(i, j), L> there.  At P_mu, z^m = f(x) makes it
        z^{i + m j_mu} prod_{nu != mu} (x - alpha_nu)^{j_nu - j_mu}, j_1 = 0, with
        i + m j_mu = 0; at P_inf its value is 1.  log(x - alpha) is read at
        x = alpha_mu for P_mu."""
        xs = [self.roots[pl.mu - 1] if pl.mu else pl.x for pl in places]  # mu > 0 at P_mu alone
        for pl, L in zip(places, map(list, zip(*self._root_logs(xs)))):
            if pl.kind_rank == 2:
                L[0] = self.A * self.field._log[pl.y] + self.B * sum(L)  # z = y^A f(x)^B
            elif pl.mu:
                L[pl.mu - 1] = -sum(L)  # the exponent -j_mu of every factor
                L[0] = 0  # i has weight 0; at P_1 this also drops the slot of j_1 = 0
            else:
                L = [0] * self.r
            yield L

    def principal_divisor(self, item: str, index: int = 0) -> Divisor:
        """Divisor of x - alpha_index, y, f, or z."""
        r, m, lam = self.r, self.m, self.lam
        if item == "x-alpha":
            return Divisor.make(r, {index: m}, -m)
        if item == "y":
            return Divisor(tuple([lam] * r), -r * lam)
        if item == "f":
            return Divisor(tuple([m] * r), -r * m)
        if item == "z":
            return Divisor(tuple([1] * r), -r)
        raise ValueError(f"unknown function {item!r}")

    def __repr__(self) -> str:
        lam = f"^{self.lam}" if self.lam != 1 else ""
        return f"KummerCurve(y^{self.m} = f(x){lam}, r={self.r}, g={self.g} over {self.field!r})"


def _at_powers(field: FiniteField, coeffs: Sequence[int]) -> List[int]:
    """f(g^k) for k = 0..q-2: the sum of c_i g^(i k) over the t nonzero
    coefficients c_i of f, low degree first; O(q t)."""
    order, exp, log = field.q - 1, field._exp, field._log
    values = [0] * order
    for i, lc in [(i, log[c]) for i, c in enumerate(coeffs) if c]:
        values = list(map(field.add, values, [exp[lc + i * k % order] for k in range(order)]))
    return values


def find_roots(field: FiniteField, f_coeffs: Sequence[int]) -> Tuple[int, ...]:
    """Roots of a monic f that splits with distinct roots, sorted by codec.

    Rejects any other polynomial: the curve model requires all roots of
    f to be simple and rational.
    """
    coeffs = list(map(field.check, f_coeffs))
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ValueError("f must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("f must be monic")
    deg = len(coeffs) - 1
    roots = [field._exp[k] for k, v in enumerate(_at_powers(field, coeffs)) if v == 0]
    roots += [0] if coeffs[0] == 0 else []  # f(0) is c_0
    if len(roots) != deg:
        raise ValueError(f"f has {len(roots)} distinct rational roots but degree {deg}")
    return tuple(sorted(roots))
