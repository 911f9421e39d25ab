"""Construction of the evaluation code C_L and its dual C_Omega.

C_L evaluates the monomial basis of L(G) at the chosen rational places;
C_Omega = C_L^perp is the null space of that evaluation matrix.
Designed minimum-distance lower bounds are attached from the Goppa
estimates, pure-gap boxes and floor pairs, and a brute-force weight
enumerator verifies them where the codebook is small enough.
"""

from __future__ import annotations

import random
from functools import partial
from operator import add, mul, sub, xor
from typing import List, Optional, Sequence, Tuple

from .curve import KummerCurve, Place
from .gf import Matrix, pack
from .rrlattice import (DEFAULT_BUDGET, BudgetExceededError, Divisor, monomial_divisor,
                        omega_enumerate)
from .weierstrass import GapBox, box_bound_value, floor_divisor, pure_gap


class PlaceInSupportError(ValueError):
    pass


class InconsistentDivisorError(ValueError):
    pass


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
    """[n, k] code over GF(q) given by a full-rank generator in RREF."""

    def __init__(self, generator: Matrix, bounds: Sequence[Tuple[str, int]] = ()):
        self.generator, self.bounds = generator, list(bounds)

    @property
    def field(self):
        return self.generator.field

    @property
    def n(self) -> int:
        return self.generator.ncols

    @property
    def k(self) -> int:
        return self.generator.nrows

    def export_text(self) -> str:
        """Wire format: header `n k q`, then k rows of n codec integers."""
        text = [str(v) for v in range(self.field.q)]
        rows = (" ".join(map(text.__getitem__, row)) for row in self.generator.rows)
        return "\n".join([f"{self.n} {self.k} {self.field.q}", *rows, ""])


def _check_evaluation_set(G: Divisor, places: Sequence[Place]) -> None:
    if len(set(places)) != len(places):
        raise ValueError("evaluation places must be pairwise distinct")
    for p in places:
        if in_support(G, p):
            raise PlaceInSupportError(f"place {p} lies in supp(G)")


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
    n = len(places)
    rank, red, _ = evaluation_matrix(curve, G, places).rref()
    code = LinearCode(Matrix(curve.field, red.rows[:rank], n))
    # The empty code has no nonzero word, so no distance bound applies.
    if rank and G.degree < n:
        code.bounds.append(("goppa_L", designed_distance(curve, G, "goppa_L", n=n)))
    return code


def build_comega(curve: KummerCurve, G: Divisor, places: Sequence[Place]) -> LinearCode:
    """C_Omega(D, G) = C_L(D, G)^perp, the null space of the evaluation matrix;
    checks the dimension law when it applies."""
    code = LinearCode(evaluation_matrix(curve, G, places).nullspace())
    n, k = code.n, code.k
    if 2 * curve.g - 2 < G.degree < n:
        expected = n + curve.g - 1 - G.degree
        if k != expected:
            raise AssertionError(
                f"dimension law violated: k_omega={k}, expected {expected}")
    bound = designed_distance(curve, G, "goppa_omega")
    if k and bound > 0:
        code.bounds.append(("goppa_omega", bound))
    return code


def designed_distance(curve: KummerCurve, G: Divisor, method: str, *,
                      n: Optional[int] = None,
                      box: Optional[GapBox] = None,
                      H: Optional[Divisor] = None) -> int:
    """A proven lower bound on the minimum distance for the given divisor."""
    two_g_2 = 2 * curve.g - 2
    if method == "goppa_L":
        if n is None or G.degree >= n:
            raise InconsistentDivisorError("goppa_L needs deg(G) < n")
        return n - G.degree
    if method == "goppa_omega":
        return G.degree - two_g_2
    if method == "pure_gap_box":
        if box is None:
            raise InconsistentDivisorError("pure_gap_box needs a box")
        for pt in box.points():
            if not pure_gap(curve, box.places, pt):
                raise InconsistentDivisorError(f"{pt} in the box is not a pure gap")
        if box.induced_divisor(curve.r) != G:
            raise InconsistentDivisorError("box does not induce G")
        return box_bound_value(curve, box)
    if method == "floor_pair":
        if H is None:
            raise InconsistentDivisorError("floor_pair needs the divisor H")
        if not H.is_effective():
            raise InconsistentDivisorError("H must be effective")
        if H + floor_divisor(curve, H) != G:
            raise InconsistentDivisorError("G != H + floor(H)")
        return 2 * H.degree - two_g_2
    raise ValueError(f"unknown method {method!r}")


def brute_force_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> Optional[int]:
    """Exact minimum distance over the q^k - 1 nonzero codewords.

    A nonzero scalar multiple of a codeword has its weight, so only the
    (q^k - 1)/(q - 1) messages whose first nonzero digit is 1 are visited:
    for each leading row, the rows below it run in codec order as a base-q
    odometer whose ticks add a precomputed delta row (next scalar multiple
    minus the current one), O(n) per message; for p = 2 a word is one packed
    int (gf.pack), a tick one XOR.  The budget still counts all q^k - 1
    codewords.  Returns None for the zero-dimensional code.
    """
    F = code.field
    q = F.q
    k = code.k
    if k == 0:
        return None
    total = q ** k
    if total - 1 > budget:  # q^k can pass the int-to-str digit limit, so print it as a power
        raise BudgetExceededError(f"{q}^{k} - 1 codewords exceed budget {budget}")
    n = code.n
    rows = code.generator.rows
    if F.p == 2:
        def weight(cw):  # bits e..7 (or e..15) of every cell are zero
            folded = cw
            for shift in range(1, F.e):
                folded |= cw >> shift
            return (folded & low_bits).bit_count()

        step, encode, low_bits = xor, partial(pack, F), pack(F, [1] * n)  # bit 0 of each cell
    else:
        def step(cw, delta_row):
            return list(map(F.add, cw, delta_row))

        def weight(cw):
            return n - cw.count(0)

        encode = list
    # delta[d][a]: row d scaled by decode((a+1) mod q) - decode(a).
    steps = [F.sub((a + 1) % q, a) for a in range(q)]
    delta = [[encode([F.mul(s, v) for v in row]) for s in steps] for row in rows]
    best = n + 1
    for lead in range(k):
        cw = encode(rows[lead])  # codec 1 is the field's one
        digits = [0] * k
        for _ in range(q ** (k - 1 - lead)):
            best = min(best, weight(cw))
            d = lead + 1
            while d < k:
                cw = step(cw, delta[d][digits[d]])
                digits[d] += 1
                if digits[d] < q:
                    break
                digits[d] = 0
                d += 1
    return best

