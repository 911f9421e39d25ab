"""Construction of the evaluation code C_L and its dual C_Omega.

C_L evaluates the monomial basis of L(G) at the chosen rational places;
C_Omega = C_L^perp is the null space of that evaluation matrix.
build_cl and build_comega attach the Goppa bounds (the pure-gap box and
floor-pair bounds are weierstrass's), and a brute-force weight enumerator
verifies bounds where the codebook is small enough.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import repeat
from operator import add, getitem, mul, sub
from typing import Iterator, List, Optional, Sequence

from .curve import KummerCurve, Place
from .matrix import Matrix
from .rrlattice import DEFAULT_BUDGET, Divisor, monomial_divisor, omega_enumerate


def coefficient_at(G: Divisor, place: Place) -> int:
    """Coefficient of the place in G; 0 at every affine place."""
    if place.kind == "ramified":
        return G.s[place.mu - 1]
    if place.kind == "infinity":
        return G.t
    return 0


def in_support(G: Divisor, place: Place) -> bool:
    return coefficient_at(G, place) != 0


def evaluation_places(curve: KummerCurve, G: Divisor,
                      n: Optional[int] = None, seed: Optional[int] = None) -> List[Place]:
    """Evaluation set: rational places outside supp(G), canonical order.

    With n given, places are dropped from the end of the canonical
    ordering (highest codec order first); a seed instead selects a
    reproducible pseudo-random subset.
    """
    pool = [p for p in curve.places() if not in_support(G, p)]
    if n is None:
        return pool
    if not 0 <= n <= len(pool):
        raise ValueError(f"asked for n={n} places; 0 to {len(pool)} are available")
    if seed is None:
        return pool[:n]
    chosen = random.Random(seed).sample(range(len(pool)), n)
    return [pool[i] for i in sorted(chosen)]


class LinearCode:
    """[n, k] code over GF(q): the row space of a full-rank matrix or, given its
    pivots, the null space of that matrix in RREF, made a row at a time."""

    def __init__(self, matrix: Matrix, pivots: Optional[Sequence[int]] = None):
        self.matrix, self.pivots, self.bounds = matrix, pivots, []

    @property
    def field(self):
        return self.matrix.field

    @property
    def n(self) -> int:
        return self.matrix.ncols

    @property
    def k(self) -> int:
        return self.matrix.nrows if self.pivots is None else self.n - len(self.pivots)

    def rows(self) -> Iterator[List[int]]:
        """Generator rows; of a null space, one per free column fc in order: the
        unit vector at fc, with the negated column fc of the RREF at the pivots."""
        if self.pivots is None:
            yield from self.matrix.rows
            return
        F, n, pivots = self.field, self.n, self.pivots
        neg = [F.neg(a) for a in range(F.q)]
        pivot_set, zero = set(pivots), [0] * n
        for fc, column in enumerate(zip(*self.matrix.rows) if pivots else repeat((), n)):
            if fc not in pivot_set:
                row = zero[:]
                row[fc] = 1
                for pc, a in zip(pivots, column):
                    row[pc] = neg[a]
                yield row

    def export(self) -> Iterator[str]:
        """Wire format, a line at a time: header `n k q`, then k rows of n codec integers."""
        text = [str(v) for v in range(self.field.q)]
        yield f"{self.n} {self.k} {self.field.q}\n"
        for row in self.rows():
            yield " ".join(map(text.__getitem__, row)) + "\n"


def null_space(matrix: Matrix) -> LinearCode:
    """The code {v : matrix v^T = 0}, held as the RREF of matrix and its pivots."""
    return LinearCode(*matrix.rref())


def _check_evaluation_set(G: Divisor, places: Sequence[Place]) -> None:
    if len(set(places)) != len(places):
        raise ValueError("evaluation places must be pairwise distinct")
    for p in places:
        if in_support(G, p):
            raise ValueError(f"place {p} lies in supp(G)")


def _place_logs(curve: KummerCurve, place: Place) -> List[int]:
    """Log vector L of a rational place over the exponents (i, j_2..j_r): a basis
    monomial with no zero there takes the value g^<(i, j), L>.  At P_mu, z^m = f(x)
    makes it z^{i + m j_mu} prod_{nu != mu} (x - alpha_nu)^{j_nu - j_mu}, j_1 = 0,
    with i + m j_mu = 0; at P_inf its value is 1."""
    F = curve.field
    if place.kind == "affine":
        L = [F.log(F.sub(place.x, alpha)) for alpha in curve.roots]
        L[0] = curve.A * F.log(place.y) + curve.B * sum(L)  # z = y^A f(x)^B
        return L
    if place.kind == "infinity":
        return [0] * curve.r
    alpha_mu = curve.roots[place.mu - 1]
    L = [F.log(F.sub(alpha_mu, alpha)) if alpha != alpha_mu else 0 for alpha in curve.roots]
    L[place.mu - 1] = -sum(L)  # the exponent -j_mu of every factor
    L[0] = 0  # i has weight 0; at P_1 this also drops the slot of j_1 = 0
    return L


def evaluation_matrix(curve: KummerCurve, G: Divisor, places: Sequence[Place]) -> Matrix:
    """Basis monomials of L(G) at places, one row each: 0 where the monomial's
    divisor is positive at the place, g^<(i, j), L> with L = _place_logs otherwise.
    No basis monomial has a pole off supp(G), so the places must avoid it."""
    _check_evaluation_set(G, places)
    F = curve.field
    order, exp = F.q - 1, F._exp
    logs = [_place_logs(curve, pl) for pl in places]
    # Only P_mu and P_inf can carry a coefficient of a monomial divisor.
    distinguished = [(col, pl) for col, pl in enumerate(places) if pl.kind != "affine"]
    # acc holds <(i, j), L> at every place for the last lattice point.  The next
    # point adds d_i * L[0] plus the change of <j, L>, formed once for each
    # change of j (few occur: a unit step in i moves each j_mu by 0 or -1).
    i_logs, j_steps = [L[0] for L in logs], {}
    last_i, last_j, acc = 0, (0,) * (curve.r - 1), [0] * len(places)
    rows = []
    for pt in omega_enumerate(curve, G):
        if pt.i != last_i:
            acc = list(map(add, acc, map((pt.i - last_i).__mul__, i_logs)))
        if pt.j != last_j:
            dj = tuple(map(sub, pt.j, last_j))
            if dj not in j_steps:
                j_steps[dj] = [sum(map(mul, dj, L[1:])) for L in logs]
            acc = list(map(add, acc, j_steps[dj]))
        last_i, last_j = pt.i, pt.j
        row = [exp[x % order] for x in acc]
        div = monomial_divisor(curve, pt)
        for col, pl in distinguished:
            if coefficient_at(div, pl) > 0:
                row[col] = 0
        rows.append(row)
    return Matrix(F, rows, len(places))


def build_cl(curve: KummerCurve, G: Divisor, places: Sequence[Place]) -> LinearCode:
    """The evaluation code C_L(D, G) with a canonical RREF generator."""
    code = LinearCode(evaluation_matrix(curve, G, places).rref()[0])
    # The empty code has no nonzero word, so no distance bound applies.
    if code.k and G.degree < code.n:
        code.bounds.append(("goppa_L", code.n - G.degree))
    return code


def build_comega(curve: KummerCurve, G: Divisor, places: Sequence[Place]) -> LinearCode:
    """C_Omega(D, G) = C_L(D, G)^perp, the null space of the evaluation matrix;
    checks the dimension law when it applies."""
    code = null_space(evaluation_matrix(curve, G, places))
    n, k = code.n, code.k
    if 2 * curve.g - 2 < G.degree < n:
        expected = n + curve.g - 1 - G.degree
        if k != expected:
            raise AssertionError(
                f"dimension law violated: k_omega={k}, expected {expected}")
    bound = G.degree - (2 * curve.g - 2)
    if k and bound > 0:
        code.bounds.append(("goppa_omega", bound))
    return code


def brute_force_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Exact minimum distance over the q^k - 1 nonzero codewords.

    A nonzero scalar multiple of a codeword has its weight, so only the
    (q^k - 1)/(q - 1) messages whose first nonzero digit is 1 are visited:
    a lead row plus any combination of multiples of the rows below it, by one
    recursion over the rows.  The last row is compared, not added: cw + s row
    is zero where cw equals t row, t = -s, so one count of the t at each cell
    weighs the q words cw + s row at once, in any characteristic.  The budget
    still counts all q^k - 1 codewords.  Returns None for the zero-dimensional code.
    """
    F = code.field
    q, k = F.q, code.k
    if k == 0:
        return None
    if q ** k - 1 > budget:  # q^k can pass the int-to-str digit limit, so print it as a power
        raise ValueError(f"{q}^{k} - 1 codewords exceed budget {budget}")
    if k > 64:  # a recursion level per row, and over 64 rows is at least 2^65 - 1 codewords
        raise ValueError(f"{k} rows exceed the search depth 64")
    n = code.n
    rows = list(code.rows())
    # multiples[d][s]: row d scaled by the element of codec s, for the rows added, 1..k-2.
    multiples = [None] + [[[F.mul(s, v) for v in row] for s in range(q)] for row in rows[1:-1]]
    # ratio[j][c]: the t with c = t row[j], row the last one unless it is the lead row 0;
    # where row[j] = 0, c = 0 is t row[j] for every t (q) and any other c for none (-1).
    ratio = []
    for v in rows[-1] if k > 1 else ():
        ratio.append([q] + [-1] * (q - 1))
        if v:
            for t in range(q):
                ratio[-1][F.mul(t, v)] = t

    def least(d, cw):
        """Least weight of cw plus any combination of multiples of rows d..k-1."""
        if d == k:
            return n - cw.count(0)
        if d < k - 1:
            return min(least(d + 1, list(map(F.add, cw, m))) for m in multiples[d])
        matches = Counter(map(getitem, ratio, cw))  # matches[t]: the cells where cw = t row
        del matches[-1]
        return n - matches.pop(q, 0) - max(matches.values(), default=0)

    return min(least(lead + 1, row) for lead, row in enumerate(rows))  # lead digit 1
