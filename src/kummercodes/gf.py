"""Exact arithmetic in GF(p^e), and row reduction over it.

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
sum of two logs indexes it directly.  This search is the irreducibility
test too: GF(p)[x]/(f) has an element of order q - 1 exactly when f is
irreducible.  The adder is chosen once: XOR for p = 2, a q x q table for
odd q <= 256 and digitwise otherwise.

A Matrix owns the row lists it is handed; row operations live in its
methods.  pack puts entry j of a row in cell j of one int, a little-endian
struct cell of 8 bits for q <= 256 and 16 above.  For p = 2, rref works
on packed rows: a shift and a reduction of each cell's bit e - 1 multiply
the whole row by x, so c times a row is one XOR of an x^k multiple per
set bit of c.  For odd p, rref updates a working copy of the rows in
place, adding g^(log c + log a) to each entry through the exp table and
the field's adder.  The supported range is q <= 2^16.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Iterable, List, Sequence, Tuple


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


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> List[int]:
    """The e digits of a b modulo the monic mod of degree e, for e-digit a and b."""
    e = len(mod) - 1
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * e - 2, e - 1, -1):  # x^k = x^(k-e) x^e, x^e = -(mod below e)
        c = prod[k] % p
        if c:
            for i in range(e):
                prod[k - e + i] -= c * mod[i]
    return [c % p for c in prod[:e]]


class FiniteField:
    """The field GF(p^e) with a pinned polynomial-basis modulus.

    Immutable after construction; all operations are pure functions of
    their integer arguments, so a field object is safe to share.
    """

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        if e < 1:
            raise ValueError(f"extension degree e={e} must be >= 1")
        modulus = list(modulus)
        if len(modulus) != e + 1:
            raise ValueError(
                f"modulus needs {e + 1} coefficients for degree {e}, got {len(modulus)}")
        # Ahead of the primality test, which a huge p would stall; e > 16
        # exceeds the range for any p >= 2 without forming a huge p ** e.
        if p >= 2 and (e > 16 or p ** e > MAX_Q):
            raise ValueError(f"p^e = {p}^{e} exceeds supported range 2^16")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        q = p ** e
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients out of [0, p)")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")

        self.p = p
        self.e = e
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    # -- construction helpers -------------------------------------------

    def _build_tables(self) -> None:
        p, e, q, mod = self.p, self.e, self.q, self.modulus
        mod_int = self._encode(mod)

        if p == 2:
            def raw_mul(a: int, b: int) -> int:
                acc = 0  # carry-less shift-and-add, reduced by the modulus at degree e
                while b:
                    if b & 1:
                        acc ^= a
                    b, a = b >> 1, a << 1
                    if a & q:
                        a ^= mod_int
                return acc
        else:
            def raw_mul(a: int, b: int) -> int:
                return self._encode(_poly_mulmod(_digits(a, p, e), _digits(b, p, e), mod, p))

        def raw_pow(a: int, k: int) -> int:
            acc = 1
            while k:
                if k & 1:
                    acc = raw_mul(acc, a)
                a, k = raw_mul(a, a), k >> 1
            return acc

        # In a field, c is primitive exactly when c^((q-1)/l) != 1 for every
        # prime l | q - 1; the first such c is the generator, and its one walk
        # the exp table (c = 1 passes only for q = 2).  A ring that is not a
        # field has no element of order q - 1: no c passes, or c^(q-1) != 1.
        cofactors = [(q - 1) // l for l in range(2, q) if (q - 1) % l == 0 and is_prime(l)]
        gen = next((c for c in range(1, q) if all(raw_pow(c, k) != 1 for k in cofactors)), None)
        if gen is None or raw_pow(gen, q - 1) != 1:
            raise ValueError(f"modulus {list(mod)} is reducible over GF({p})")
        exp, v = [1], gen
        while v != 1:
            exp.append(v)
            v = raw_mul(v, gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = gen
        self._exp = exp + exp
        self._log = log
        # log(-1): -1 = g^((q-1)/2) for odd q, and -1 = 1 in characteristic 2.
        self._log_minus_one = (q - 1) // 2 if p != 2 else 0

        self._add_table = None
        if p == 2:
            self.add = operator.xor
        elif q <= 1 << 8:
            # Digitwise sums, one base-p digit per pass: a = a0 + p*a', b = b0 + p*b'.
            digit = [[(a + b) % p for b in range(p)] for a in range(p)]
            table = [[0]]
            for _ in range(e):
                table = [[lo + p * hi for hi in hi_row for lo in lo_row]
                         for hi_row in table for lo_row in digit]
            self._add_table = table
            self.add = lambda a, b: table[a][b]
        else:
            self.add = self._add_digitwise

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


def _cell(F: FiniteField) -> str:
    """The struct format of one packed entry: an unsigned byte, or 16 bits if q > 256."""
    return "B" if F.q <= 1 << 8 else "H"


def pack(F: FiniteField, row: Sequence[int]) -> int:
    """A row over any GF(q) as one int: entry j in byte-aligned cell j (see _cell)."""
    return int.from_bytes(struct.pack(f"<{len(row)}{_cell(F)}", *row), "little")


def unpack(F: FiniteField, packed: int, n: int) -> List[int]:
    """The n entries of a packed row."""
    cell = _cell(F)
    return list(struct.unpack(f"<{n}{cell}", packed.to_bytes(n * struct.calcsize(cell), "little")))


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
    so a caller that changes them later changes the Matrix.  rref never
    changes self.rows.
    """

    def __init__(self, field: FiniteField, rows: List[List[int]], ncols: int | None = None):
        self.field, self.rows, self.nrows = field, rows, len(rows)
        self.ncols = len(rows[0]) if rows else ncols or 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")

    def rref(self) -> Tuple["Matrix", List[int]]:
        """Reduced row echelon form.

        Pivot rule is fixed (scan columns left to right, rows top-down)
        so the result, and hence every derived basis, is deterministic.
        Returns (the nonzero rows of the RREF, their pivot columns).
        """
        if self.field.p == 2:
            return self._rref_packed()
        F = self.field
        exp, log, order = F._exp, F._log, F.q - 1
        table, add = F._add_table, F.add  # the table when q <= 256
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
        return Matrix(F, rows[:prow], self.ncols), pivots

    def _rref_packed(self) -> Tuple["Matrix", List[int]]:
        """rref over GF(2^e) on packed rows (see the module docstring)."""
        F, n, e = self.field, self.ncols, self.field.e
        width, mask = 8 * struct.calcsize(_cell(F)), F.q - 1
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
        return Matrix(F, [unpack(F, v, n) for v in rows[:len(pivots)]], n), pivots

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

