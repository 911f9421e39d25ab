"""Row reduction over GF(q), on the codec integers of a gf.FiniteField.

A Matrix owns the row lists it is handed; rref reduces packed copies of
them, one int per row, by one elimination loop for every p.  Entry j of a
row is cell j of the int, and digit i of the entry (its coefficient of
x^i) is slot i of the cell.  For p = 2 a slot is one bit of a byte-aligned
cell of 8 bits (16 if q > 256), so a cell holds the codec integer itself
and rows combine by XOR.  For odd p a slot is one byte, or as many bytes
as e(p - 1)^2 + p - 1 needs (one more where those hold only one row
operation), and rows add as Python ints: a slot may run past p - 1, and
bytes.translate (per slot when a slot is wider than a byte) reduces every
row mod p only when one more row operation could carry a slot past its
width.  x times a row shifts each cell up one slot and adds its top digit
times x^e = -(the modulus below x^e).  Each pivot keeps the sums of its
x^i multiples over the low and over the high half of the digits in two
tables, so row -= c * pivot is two int operations.
Only the jobs that reduce a matrix run this module.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, xor
from typing import List, Tuple

from .gf import FiniteField


@lru_cache(maxsize=8)  # a few fields at a time: an entry holds q cells
def _layout(F: FiniteField) -> tuple:
    """The packing of one field: bytes a slot and the byte table mod p (odd p),
    bits a slot, bytes a cell, how rows combine, the cell of each codec
    integer as bytes, and the codec integer of each reduced cell."""
    p, e = F.p, F.e
    if p == 2:
        w, table, s, cb, combine = 0, None, 1, 1 + (F.q > 256), xor
    else:
        w = ((e * (p - 1) ** 2 + p - 1).bit_length() + 7) // 8
        # A wider slot with room for one row operation would reduce every row, slot
        # by slot, at every pivot; one byte more makes room for 256 of them.
        w += w > 1 and 256 ** w - p < 2 * e * (p - 1) ** 2
        table, s, cb, combine = bytes(i % p for i in range(256)), 8 * w, e * w, add
    slots = [0]
    for i in range(e):  # digit i of each codec integer to slot i
        slots = [c + (d << s * i) for d in range(p) for c in slots]
    cells = tuple(c.to_bytes(cb, "little") for c in slots)
    return w, table, s, cb, combine, cells, dict(zip(cells, range(F.q)))


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
        """Reduced row echelon form, on packed rows (see the module docstring).

        Pivot rule is fixed (scan columns left to right, rows top-down)
        so the result, and hence every derived basis, is deterministic.
        Returns (the nonzero rows of the RREF, their pivot columns).
        """
        F, n = self.field, self.ncols
        p, e, q, log, exp = F.p, F.e, F.q, F._log, F._exp
        w, table, s, cb, combine, cells, codec = _layout(F)
        # Row operations a reduced row takes before a slot could overflow; for XOR, never
        cap = (2 ** s - p) // (e * (p - 1) ** 2) or n + 1

        def mod_p(b):  # byte by byte, or slot by slot for w > 1
            return b.translate(table) if w == 1 else b"".join(
                (int.from_bytes(b[i:i + w], "little") % p).to_bytes(w, "little")
                for i in range(0, len(b), w))

        def reduce(v):
            return int.from_bytes(mod_p(v.to_bytes(n * cb, "little")), "little") if p > 2 else v

        def read(v):  # the codec integer in cell col of v
            c = v >> shift & cell
            return codec[mod_p(c.to_bytes(cb, "little"))] if p > 2 else c

        def sums(xs):  # sum of d_i xs[i] at index sum of d_i p^i
            if len(xs) == 1:  # d xs[0], made on demand: p may be large
                return range(0, p * xs[0], xs[0])
            out = [0]
            for x in xs:
                out += [combine(a, m) for m in map(x.__mul__, range(1, p)) for a in out]
            return out

        cell = 256 ** cb - 1
        digit = int.from_bytes(cells[1] * n, "little") * (2 ** s - 1)  # slot 0 of every cell
        minus_x_e = sum(-c % p << s * i for i, c in enumerate(F.modulus[:-1]))  # x^e, one cell
        h = (e + 1) // 2
        half = p ** h
        rows = [int.from_bytes(bytes(r) if cb == 1 else b"".join(map(cells.__getitem__, r)),
                               "little") for r in self.rows]
        pivots = []
        for col in range(n):
            prow, shift = len(pivots), 8 * cb * col
            if prow == len(rows):
                break
            sel = next((r for r in range(prow, len(rows)) if read(rows[r])), None)
            if sel is None:
                continue
            rows[prow], rows[sel] = rows[sel], rows[prow]
            xs = [reduce(rows[prow])]  # x^k times the pivot row, k < e
            for _ in range(e - 1):
                hi = xs[-1] & digit << s * (e - 1)  # the top slot of every cell
                xs.append(reduce(combine(xs[-1] - hi << s, (hi >> s * (e - 1)) * minus_x_e)))
            low, high = sums(xs[:h]), sums(xs[h:])
            la = log[read(xs[0])]
            inv, scale = exp[q - 1 - la], (F._log_minus_one - la) % (q - 1)
            rows[prow] = reduce(combine(low[inv % half], high[inv // half]))
            for r, v in enumerate(rows):
                c = r != prow and read(v)
                if c:  # row += t pivot, t = -c / a: cell col cancels
                    t = exp[log[c] + scale]
                    rows[r] = combine(combine(v, low[t % half]), high[t // half])
            pivots.append(col)
            if len(pivots) % cap == 0:
                rows = list(map(reduce, rows))
        out = []
        for v in map(reduce, rows[:len(pivots)]):
            if p > 2:  # each codec integer to the foot of its cell
                v = sum(p ** i * (v >> s * i & digit) for i in range(e))
            b = v.to_bytes(n * cb, "little")
            out.append(list(b[::cb]) if q <= 256
                       else [lo | hi << 8 for lo, hi in zip(b[::cb], b[1::cb])])
        return Matrix(F, out, n), pivots

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"
