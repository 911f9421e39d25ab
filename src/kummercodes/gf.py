"""Exact arithmetic in GF(p^e).

Field elements are represented as plain integers in [0, q): the base-p
digits of the integer (least significant first) are the coefficients of
the element in the polynomial basis defined by a user-supplied monic
irreducible modulus.  This integer form is the "codec integer" used in
every file format, so encode/decode are near-trivial and round-trip by
construction.

FiniteField holds the scalar operations the package calls: neg, mul,
check and add.  Multiplication, negation and odd-p addition use discrete
log tables built once per field.  The generator is the first element, in
codec order, whose powers reach every nonzero element; the walk over its
powers is the exp table, doubled so that a sum of two logs indexes it
directly.  This search is the irreducibility test too: GF(p)[x]/(f) has
an element of order q - 1 exactly when f is irreducible.  The adder is
chosen by p once: XOR for p = 2, and for odd p the Zech logarithms
Z(k) = log(1 + g^k), one table of q - 1 entries.  The supported range is
q <= 2^16.
Row reduction over the field is the matrix module's.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, List, Sequence


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
        self._exp = exp + exp
        self._log = log
        # log(-1): -1 is the codec integer p - 1 in every characteristic.
        self._log_minus_one = log[p - 1]

        if p == 2:
            self.add = operator.xor
            return
        # Zech logarithms, a + b = a (1 + b/a) = g^(log a + Z(log b - log a)) with
        # Z(k) = log(1 + g^k): adding 1 changes only digit 0 of a codec integer.
        # 1 + g^k = 0 at k = log(-1), whose Z points at q - 1 zeros past exp.
        zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
        zech[self._log_minus_one] = 2 * q - 2
        sums = self._exp + [0] * (q - 1)

        def add(a: int, b: int) -> int:
            if a and b:
                la = log[a]
                return sums[la + zech[log[b] - la]]  # a negative index wraps mod q - 1
            return a or b
        self.add = add

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

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


# perfbench/traced_job.py, kept fixed so that runs of two revisions compare,
# traces row reduction as ("kummercodes.gf", "Matrix.rref"), so gf resolves
# Matrix from matrix on access; a job that reduces no matrix compiles none.
# This goes when ROADMAP item 1 replaces the tracer's wrappers.
def __getattr__(name: str):
    if name == "Matrix":
        from .matrix import Matrix
        return Matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
