"""Exact arithmetic in GF(p^e), and row reduction and null spaces over it.

Field elements are represented as plain integers in [0, q): the base-p
digits of the integer (least significant first) are the coefficients of
the element in the polynomial basis defined by a user-supplied monic
irreducible modulus.  This integer form is the "codec integer" used in
every file format, so encode/decode are near-trivial and round-trip by
construction.

FiniteField holds scalar arithmetic only.  Multiplication and negation
use discrete log tables built once per field.  The generator is the
first element, in codec order, whose powers reach every nonzero
element; the walk over its powers is the exp table, doubled so that a
sum of two logs indexes it directly.  Addition is XOR for p = 2, a
q x q table for odd q <= 256 and digitwise otherwise.

A Matrix owns the row lists it is handed; row operations live in its
methods.  For p = 2, rref packs a row into one int of byte-aligned cells
(8 bits for q <= 256, 16 above); a shift and a reduction of each cell's
bit e - 1 multiply the whole row by x, so c times a row is one XOR of an
x^k multiple per set bit of c.  For odd p, rref updates a working copy
of the rows in place, adding g^(log c + log a) to each entry through the
exp table and the field's adder.  The supported range is q <= 2^16.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Iterable, List, Sequence, Tuple


class NotPrimeError(ValueError):
    pass


class NotIrreducibleError(ValueError):
    pass


class BadModulusError(ValueError):
    pass


MAX_Q = 1 << 16


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# -- polynomial helpers over GF(p), coefficients low-degree first --------

def _digits(a: int, p: int, n: int) -> List[int]:
    """The n lowest base-p digits of a, least significant first."""
    out = []
    for _ in range(n):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _poly_trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, mod, p)


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    """The remainder of a on division by the monic polynomial mod."""
    rem = _poly_trim(list(a))
    while len(rem) >= len(mod):
        shift = len(rem) - len(mod)
        c = rem[-1]
        for i, di in enumerate(mod):
            rem[shift + i] = (rem[shift + i] - c * di) % p
        _poly_trim(rem)
    return rem


def _poly_is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= e/2."""
    e = len(mod) - 1
    if e == 1:
        return True
    for deg in range(1, e // 2 + 1):
        for code in range(p ** deg):
            trial = _digits(code, p, deg) + [1]
            if not _poly_mod(mod, trial, p):
                return False
    return True


class FiniteField:
    """The field GF(p^e) with a pinned polynomial-basis modulus.

    Immutable after construction; all operations are pure functions of
    their integer arguments, so a field object is safe to share.
    """

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        if e < 1:
            raise BadModulusError(f"extension degree e={e} must be >= 1")
        modulus = list(modulus)
        if len(modulus) != e + 1:
            raise BadModulusError(
                f"modulus needs {e + 1} coefficients for degree {e}, got {len(modulus)}")
        # Ahead of the trial division, which a huge p would stall; e > 16
        # exceeds the range for any p >= 2 without forming a huge p ** e.
        if p >= 2 and (e > 16 or p ** e > MAX_Q):
            raise BadModulusError(f"p^e = {p}^{e} exceeds supported range 2^16")
        if not is_prime(p):
            raise NotPrimeError(f"p={p} is not prime")
        q = p ** e
        if any(not 0 <= c < p for c in modulus):
            raise BadModulusError("modulus coefficients out of [0, p)")
        if modulus[-1] != 1:
            raise BadModulusError("modulus must be monic")
        if not _poly_is_irreducible(modulus, p):
            raise NotIrreducibleError(f"modulus {modulus} is reducible over GF({p})")

        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    # -- construction helpers -------------------------------------------

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        mod = list(self.modulus)
        mod_int = self._encode(mod)

        def raw_mul(a: int, b: int) -> int:
            if p != 2:
                return self._encode(_poly_mulmod(_digits(a, p, e), _digits(b, p, e), mod, p))
            acc = 0  # carry-less shift-and-add, reduced by the modulus at degree e
            while b:
                if b & 1:
                    acc ^= a
                b, a = b >> 1, a << 1
                if a & q:
                    a ^= mod_int
            return acc

        # c is primitive exactly when its powers first return to 1 after
        # q - 1 steps; the first such c is the generator, and its walk the
        # exp table.  c = 1 passes only for q = 2.
        for gen in range(1, q):
            exp, v = [1], gen
            while v != 1:
                exp.append(v)
                v = raw_mul(v, gen)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = gen
        self._exp = exp + exp
        self._log = log
        # log(-1): -1 = g^((q-1)/2) for odd q, and -1 = 1 in characteristic 2.
        self._log_minus_one = (q - 1) // 2 if p != 2 else 0
        self._cells = "B" if q <= 1 << 8 else "H"  # array typecode of a packed GF(2^e) entry

        self._add_table = None
        if p != 2 and q <= 1 << 8:
            # Digitwise sums, one base-p digit per pass: a = a0 + p*a', b = b0 + p*b'.
            digit = [[(a + b) % p for b in range(p)] for a in range(p)]
            table = [[0]]
            for _ in range(e):
                table = [[lo + p * hi for hi in hi_row for lo in lo_row]
                         for hi_row in table for lo_row in digit]
            self._add_table = table

    # -- codec ----------------------------------------------------------

    def _encode(self, coeffs: Iterable[int]) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c
        return a

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element code of GF({self.q})")
        return a

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_digitwise(a, b)

    def _add_digitwise(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (a + b) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def log(self, a: int) -> int:
        """The discrete log of a nonzero a to the base self.generator, in [0, q-1)."""
        if a == 0:
            raise ZeroDivisionError("log of 0")
        return self._log[a]

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


def pack(F: FiniteField, row: Sequence[int]) -> int:
    """A row over GF(2^e) as one int: entry j in the byte-aligned cell j."""
    cells = array(F._cells, row)
    if sys.byteorder == "big":
        cells.byteswap()
    return int.from_bytes(cells, "little")


def unpack(F: FiniteField, packed: int, n: int) -> List[int]:
    """The n entries of a packed row over GF(2^e)."""
    cells = array(F._cells)
    cells.frombytes(packed.to_bytes(n * cells.itemsize, "little"))
    if sys.byteorder == "big":
        cells.byteswap()
    return cells.tolist()


def _scaled(multiples: Sequence[int], c: int) -> int:
    """c times the packed row whose x^k multiples are given: one XOR per set bit."""
    acc = 0
    for k, v in enumerate(multiples):
        if c >> k & 1:
            acc ^= v
    return acc


class Matrix:
    """Dense row-major matrix of codec integers over one FiniteField.

    The Matrix owns the row lists it is handed and copies none of them,
    so a caller that changes them later changes the Matrix.  rref and
    nullspace never change self.rows.
    """

    def __init__(self, field: FiniteField, rows: List[List[int]], ncols: int | None = None):
        self.field, self.rows, self.nrows = field, rows, len(rows)
        self.ncols = len(rows[0]) if rows else ncols or 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")

    def rref(self) -> Tuple[int, "Matrix", List[int]]:
        """Reduced row echelon form.

        Pivot rule is fixed (scan columns left to right, rows top-down)
        so the result, and hence every derived basis, is deterministic.
        Returns (rank, rref matrix, pivot column list).
        """
        if self.field.p == 2:
            return self._rref_packed()
        F = self.field
        exp, log, order = F._exp, F._log, F.q - 1
        table, add = F._add_table, F._add_digitwise  # the table when q <= 256
        rows = [list(r) for r in self.rows]  # a working copy: self.rows stays as it is
        nrows = len(rows)
        pivots: List[int] = []
        prow = 0
        for col in range(self.ncols):
            sel = next((r for r in range(prow, nrows) if rows[r][col]), None)
            if sel is None:
                continue
            rows[prow], rows[sel] = rows[sel], rows[prow]
            shift = order - log[rows[prow][col]]
            pivot = rows[prow] = [exp[shift + log[v]] if v else 0 for v in rows[prow]]
            terms = [(j, log[v]) for j, v in enumerate(pivot) if v]
            for r, row in enumerate(rows):
                c = row[col]
                if c and r != prow:
                    # row -= c * pivot, as row[j] += g^(lc + l) for (j, l) in terms
                    lc = (log[c] + F._log_minus_one) % order
                    if table is not None:
                        for j, l in terms:
                            row[j] = table[row[j]][exp[lc + l]]
                    else:
                        for j, l in terms:
                            row[j] = add(row[j], exp[lc + l])
            pivots.append(col)
            prow += 1
            if prow == nrows:
                break
        return prow, Matrix(F, rows, self.ncols), pivots

    def _rref_packed(self) -> Tuple[int, "Matrix", List[int]]:
        """rref over GF(2^e) on packed rows (see the module docstring)."""
        F, n, e = self.field, self.ncols, self.field.e
        width, mask = 8 * array(F._cells).itemsize, F.q - 1
        high = pack(F, [1] * n) << e - 1  # bit e - 1 of every cell
        low_modulus = F._encode(F.modulus[:-1])  # x^e in the basis 1, x, .., x^(e-1)

        def x_multiples(v: int) -> List[int]:  # v, x v, .., x^(e-1) v
            out = [v]
            for _ in range(e - 1):
                hi = v & high
                v = ((v ^ hi) << 1) ^ ((hi >> e - 1) * low_modulus)
                out.append(v)
            return out

        rows = [pack(F, r) for r in self.rows]
        pivots: List[int] = []
        while len(pivots) < len(rows):
            prow = len(pivots)
            # Rows from prow on are zero left of the next pivot column, so
            # that column is the lowest nonzero cell among them.
            lead = [((v & -v).bit_length() - 1) // width if v else n for v in rows[prow:]]
            col = min(lead)
            if col == n:
                break
            sel = prow + lead.index(col)
            rows[prow], rows[sel] = rows[sel], rows[prow]
            shift = width * col
            inv = F._exp[mask - F._log[rows[prow] >> shift & mask]]
            multiples = x_multiples(_scaled(x_multiples(rows[prow]), inv))
            rows[prow] = multiples[0]
            for r, v in enumerate(rows):
                c = v >> shift & mask
                if c and r != prow:
                    rows[r] = v ^ _scaled(multiples, c)  # row -= c * pivot
            pivots.append(col)
        return len(pivots), Matrix(F, [unpack(F, v, n) for v in rows], n), pivots

    def nullspace(self) -> "Matrix":
        """Basis of {v : M v^T = 0}, rows in reduced echelon order."""
        F, n = self.field, self.ncols
        _, red, pivots = self.rref()
        neg = range(F.q) if F.p == 2 else [F.neg(a) for a in range(F.q)]
        pivot_set, basis = set(pivots), []
        for fc, column in enumerate(zip(*red.rows) if red.rows else [()] * n):
            if fc not in pivot_set:
                v = [0] * n
                v[fc] = 1
                for pc, a in zip(pivots, column):
                    v[pc] = neg[a]
                basis.append(v)
        return Matrix(F, basis, n)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

