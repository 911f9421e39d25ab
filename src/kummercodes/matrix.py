"""Row reduction over GF(q), on the codec integers of a gf.FiniteField.

A Matrix owns the row lists it is handed; row operations live in its
methods.  pack puts entry j of a row in cell j of one int, a little-endian
struct cell of 8 bits for q <= 256 and 16 above.  For p = 2, rref works
on packed rows: a shift and a reduction of each cell's bit e - 1 multiply
the whole row by x, so c times a row is one XOR of an x^k multiple per
set bit of c.  For odd p, rref updates a working copy of the rows in
place, adding g^(log c + log a) to each entry through the exp table and
the field's adder.  Only the jobs that reduce a matrix run this module.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from .gf import FiniteField


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

