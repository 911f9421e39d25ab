"""Construction of the evaluation code C_L and its dual C_Omega.

C_L evaluates the monomial basis of L(G) at the chosen rational places;
C_Omega = C_L^perp is the null space of that evaluation matrix.
build_cl and build_comega attach the Goppa bounds (the pure-gap box and
floor-pair bounds are weierstrass's), and a brute-force weight enumerator
verifies bounds where the codebook is small enough.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections import Counter
from itertools import islice, repeat
from operator import add, getitem, mul, sub
from typing import Iterator, List, Optional, Sequence

from .curve import KummerCurve, Place
from .matrix import Matrix
from .rrlattice import (DEFAULT_BUDGET, Divisor, check_budget, dimension,
                        monomial_divisor, omega_enumerate)


def coefficient_at(G: Divisor, place: Place) -> int:
    """Coefficient of the place in G; 0 at every affine place."""
    if place.mu:
        return G.s[place.mu - 1]
    if place.kind_rank == 0:
        return G.t
    return 0


def evaluation_places(curve: KummerCurve, G: Divisor,
                      n: Optional[int] = None, seed: Optional[int] = None) -> List[Place]:
    """Evaluation set: rational places outside supp(G), canonical order.

    With n given, places are dropped from the end of the canonical
    ordering (highest codec order first), so only the first n are made;
    a seed instead selects a reproducible pseudo-random subset.
    """
    pool = list(islice((p for p in curve.iter_places() if not coefficient_at(G, p)),
                       n if n is not None and n >= 0 and seed is None else None))
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

    def _free_columns(self) -> Iterator[tuple]:
        """The sparse view of a null space: (fc, the RREF column fc) for each free
        column fc in order.  Its row is 1 at fc, minus that column at the pivots
        (where it is 0 right of fc) and 0 elsewhere."""
        pivots = set(self.pivots)
        for fc, column in enumerate(zip(*self.matrix.rows) if pivots else repeat((), self.n)):
            if fc not in pivots:
                yield fc, column

    def rows(self) -> Iterator[List[int]]:
        """Generator rows, dense; of a null space, made from its sparse view."""
        if self.pivots is None:
            yield from self.matrix.rows
            return
        for fc, column in self._free_columns():
            row = [0] * self.n
            for pc, a in zip(self.pivots, column):
                row[pc] = self.field.neg(a)
            row[fc] = 1
            yield row

    def export(self) -> Iterator[str]:
        """Wire format, a line at a time: header `n k q`, then k rows of n codec
        integers; a null space writes each row from its sparse view."""
        F, n, pivots = self.field, self.n, self.pivots
        yield f"{n} {self.k} {F.q}\n"
        if pivots is None:
            text = [str(v) for v in range(F.q)]
            for row in self.rows():
                yield " ".join(map(text.__getitem__, row)) + "\n"
            return
        minus = [f"{F.neg(a)} " for a in range(F.q)]  # the text of -a, then a separator
        after = [0] + [pc + 1 for pc in pivots]  # the first column after each pivot
        runs = ["0 " * (pc - a) for pc, a in zip(pivots, after)]  # the zeros before it
        for fc, column in self._free_columns():
            k = bisect(pivots, fc)  # the pivots left of fc
            yield ("".join(map(add, runs[:k], map(minus.__getitem__, column[:k])))
                   + "0 " * (fc - after[k]) + "1" + " 0" * (n - fc - 1) + "\n")


def _check_evaluation_set(G: Divisor, places: Sequence[Place]) -> None:
    if len(set(places)) != len(places):
        raise ValueError("evaluation places must be pairwise distinct")
    for p in places:
        if coefficient_at(G, p):
            raise ValueError(f"place {p} lies in supp(G)")


def evaluation_matrix(curve: KummerCurve, G: Divisor, places: Sequence[Place]) -> Matrix:
    """Basis monomials of L(G) at places, one row each: 0 where the monomial's
    divisor is positive at the place, g^<(i, j), L> with L = curve.place_logs otherwise.
    No basis monomial has a pole off supp(G), so the places must avoid it."""
    _check_evaluation_set(G, places)
    F = curve.field
    order, exp = F.q - 1, F._exp
    logs = list(curve.place_logs(places))
    # Only P_mu and P_inf can carry a coefficient of a monomial divisor.
    distinguished = [(col, pl) for col, pl in enumerate(places) if pl.kind_rank < 2]
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


def dimension_law(curve: KummerCurve, G: Divisor, n: int, dual: bool) -> Optional[int]:
    """k of C_L(D, G), or of C_Omega(D, G) if dual, on n places, where deg G < n makes
    evaluation injective on L(G): ell(G), or n - ell(G).  None where deg G >= n."""
    if G.degree >= n:
        return None
    ell = dimension(curve, G)
    return n - ell if dual else ell


def check_search(curve: KummerCurve, G: Divisor, n: int, dual: bool, budget: int) -> None:
    """Refuse the distance search of the code on n places before it is built, where
    dimension_law fixes k, with brute_force_distance's message for its q^k - 1 words."""
    k = dimension_law(curve, G, n, dual)
    if k is not None:
        q = curve.field.q
        check_budget(q ** k - 1, "codewords", budget, shown=f"{q}^{k} - 1")


def _check_dimension(curve: KummerCurve, G: Divisor, code: LinearCode, dual: bool) -> None:
    """k against dimension_law, an internal invariant: no job can make them differ."""
    expected = dimension_law(curve, G, code.n, dual)
    if expected is not None and code.k != expected:
        raise AssertionError(f"dimension law violated: k_{'omega' if dual else 'L'}="
                             f"{code.k}, expected {expected}")


def build_cl(curve: KummerCurve, G: Divisor, places: Sequence[Place]) -> LinearCode:
    """The evaluation code C_L(D, G) with a canonical RREF generator; checks k = ell(G)
    when deg G < n."""
    code = LinearCode(evaluation_matrix(curve, G, places).rref()[0])
    _check_dimension(curve, G, code, False)
    # The empty code has no nonzero word, so no distance bound applies.
    if code.k and G.degree < code.n:
        code.bounds.append(("goppa_L", code.n - G.degree))
    return code


def build_comega(curve: KummerCurve, G: Divisor, places: Sequence[Place]) -> LinearCode:
    """C_Omega(D, G) = C_L(D, G)^perp, the null space of the evaluation matrix;
    checks k = n - ell(G) when deg G < n."""
    code = LinearCode(*evaluation_matrix(curve, G, places).rref())
    _check_dimension(curve, G, code, True)
    bound = G.degree - (2 * curve.g - 2)
    if code.k and bound > 0:
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
    # q^k can pass the int-to-str digit limit, so the count is printed as a power
    check_budget(q ** k - 1, "codewords", budget, shown=f"{q}^{k} - 1")
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
