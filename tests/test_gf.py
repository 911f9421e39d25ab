"""Field arithmetic and linear algebra over GF(p^e)."""

from __future__ import annotations

import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kummercodes.agcode import LinearCode
from kummercodes import gf
from kummercodes.gf import FiniteField
from kummercodes.matrix import Matrix


def gf2():
    return FiniteField(2, 1, [0, 1])


def gf9():
    return FiniteField(3, 2, [1, 0, 1])  # x^2 + 1


def gf64():
    return FiniteField(2, 6, [1, 1, 0, 0, 0, 0, 1])


# Fields for every layout of the packed rref: for p = 2 a digit is a bit of
# an 8-bit cell up to GF(256) and of a 16-bit cell for GF(2^10); for odd p a
# digit is a byte while e(p - 1)^2 + p - 1 <= 255 (GF(3^4), GF(5^2), GF(3^6),
# with q > 256 in the last), 2 bytes for GF(13^2), where one row operation
# adds up to e(p - 1)^2 = 288 to a digit, and 3 bytes for the primes GF(257)
# and GF(191), whose 190^2 + 190 fits 2 bytes that hold one row operation only.
KERNEL_FIELDS = [
    FiniteField(2, 1, [0, 1]),
    FiniteField(2, 2, [1, 1, 1]),
    FiniteField(2, 4, [1, 1, 0, 0, 1]),
    FiniteField(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    FiniteField(2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),
    FiniteField(3, 4, [2, 1, 0, 0, 1]),
    FiniteField(5, 2, [2, 0, 1]),
    FiniteField(3, 6, [1, 0, 0, 0, 1, 1, 1]),
    FiniteField(13, 2, [2, 0, 1]),  # x^2 + 2: -2 is not a square mod 13
    FiniteField(257, 1, [0, 1]),
    FiniteField(191, 1, [0, 1]),
]


def power(F, a, n):
    """a^n by square-and-multiply with F.mul; a negative n inverts a first,
    as a^(q-2)."""
    if n < 0:
        if a == 0:
            raise ZeroDivisionError("0 to a negative power")
        a, n = power(F, a, F.q - 2), -n
    acc = 1
    while n:
        if n & 1:
            acc = F.mul(acc, a)
        a = F.mul(a, a)
        n >>= 1
    return acc


def coeffs(F, a):
    """Polynomial-basis coefficients of a, low degree first: its base-p digits."""
    return [a // F.p ** i % F.p for i in range(F.e)]


def oracle_rref(F, rows):
    """Scalar Gauss-Jordan elimination with the pivot rule of Matrix.rref."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0])):
        prow = len(pivots)
        sel = next((r for r in range(prow, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = power(F, rows[prow][col], -1)
        rows[prow] = [F.mul(inv, v) for v in rows[prow]]
        for r, row in enumerate(rows):
            c = row[col]
            if r != prow and c:
                rows[r] = [F.add(v, F.mul(F.neg(c), w)) for v, w in zip(row, rows[prow])]
        pivots.append(col)
    return len(pivots), rows, pivots


def oracle_dot(F, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def oracle_nullspace(F, rows, ncols):
    """Null space read off the oracle RREF: one vector per free column."""
    _, red, pivots = oracle_rref(F, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = F.neg(row[fc])
        basis.append(v)
    return basis


def null_rows(M):
    """The null space of M as the package streams it, as a list of rows."""
    return list(LinearCode(*M.rref()).rows())


def test_construction_validates():
    with pytest.raises(ValueError, match="^p=4 is not prime$"):
        FiniteField(4, 1, [0, 1])
    with pytest.raises(ValueError, match=r"^modulus \[1, 0, 1\] is reducible over GF\(5\)$"):
        FiniteField(5, 2, [1, 0, 1])  # x^2 + 1 = (x-2)(x-3) mod 5
    with pytest.raises(ValueError, match="^modulus must be monic$"):
        FiniteField(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(ValueError, match="^modulus needs 3 coefficients for degree 2, got 4$"):
        FiniteField(3, 2, [1, 0, 0, 1])  # wrong degree
    with pytest.raises(ValueError, match=r"^p\^e = 2\^17 exceeds supported range 2\^16$"):
        FiniteField(2, 17, [1] + [0] * 16 + [1])  # q > 2^16
    with pytest.raises(ValueError, match="^extension degree e=0 must be >= 1$"):
        FiniteField(2, 0, [1])  # e = 0
    with pytest.raises(ValueError, match=r"^modulus coefficients out of \[0, p\)$"):
        FiniteField(3, 2, [1, 3, 1])  # a coefficient >= p


def test_range_checked_before_primality():
    # Trial division of an 18-digit p would stall; q > 2^16 rejects it first.
    with pytest.raises(ValueError, match=r"^p\^e = 1000000000000000003\^1 exceeds supported"):
        FiniteField(1000000000000000003, 1, [0, 1])


def test_huge_extension_degree_rejected_without_forming_q():
    # 2^20000 has over 4300 decimal digits, past Python's int-to-str limit,
    # so the message must name p and e rather than q.
    with pytest.raises(ValueError, match=r"p\^e = 2\^20000 exceeds supported range"):
        FiniteField(2, 20000, [1] + [0] * 19999 + [1])
    with pytest.raises(ValueError, match="^p=1 is not prime$"):
        FiniteField(1, 20, [1] + [0] * 19 + [1])


def test_small_fields_exist():
    assert gf2().q == 2
    assert gf9().q == 9
    assert gf64().q == 64


def test_gf9_generator_square():
    # x * x = -1 = 2 with modulus x^2 + 1; x has codec integer 3.
    F = gf9()
    assert F.mul(3, 3) == 2


def from_coeffs(F, coeffs):
    """The codec integer of polynomial-basis coefficients, low degree first."""
    if len(coeffs) > F.e:
        raise ValueError(f"too many coefficients for GF({F.p}^{F.e})")
    return sum(c % F.p * F.p ** i for i, c in enumerate(coeffs))


def test_char2_self_inverse():
    F = gf64()
    for a in range(F.q):
        assert F.add(a, a) == 0
        assert F.neg(a) == a


def test_neg_is_the_additive_inverse_in_every_characteristic():
    # neg multiplies by -1, the codec integer p - 1 for every p (1 for p = 2).
    for F in KERNEL_FIELDS + [FiniteField(7, 1, [0, 1]), FiniteField(7, 2, [1, 0, 1])]:
        assert F.neg(1) == F.p - 1
        assert all(F.add(a, F.neg(a)) == 0 for a in range(F.q)), F


def test_multiplicative_order():
    for F in (gf9(), gf64()):
        for a in range(1, F.q):
            assert power(F, a, F.q - 1) == 1


def test_field_axioms_random():
    rng = random.Random(11)
    for F in (gf9(), gf64(), FiniteField(5, 2, [2, 0, 1])):
        for _ in range(200):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, power(F, a, -1)) == 1
            # Frobenius is additive
            assert power(F, F.add(a, b), F.p) == F.add(power(F, a, F.p), power(F, b, F.p))


def test_add_is_digitwise():
    # Each adder against coefficient addition: XOR for GF(2^e) and the Zech
    # logarithms for odd p, whose table is built by adding 1 to digit 0 alone.
    # Exhaustive up to GF(3^5) and for GF(257), where digit 0 is the whole
    # element; GF(7^3) and GF(3^6), with q > 256, on a seeded sample of pairs.
    def coefficient_sum(F, a, b):
        return from_coeffs(F, [x + y for x, y in zip(coeffs(F, a), coeffs(F, b))])

    for p, e, modulus in ((2, 6, [1, 1, 0, 0, 0, 0, 1]), (3, 2, [1, 0, 1]), (5, 2, [2, 0, 1]),
                          (3, 3, [1, 2, 0, 1]), (7, 2, [1, 0, 1]), (3, 4, [2, 1, 0, 0, 1]),
                          (5, 3, [2, 3, 0, 1]), (3, 5, [1, 2, 0, 0, 0, 1]), (257, 1, [0, 1])):
        F = FiniteField(p, e, modulus)
        for a in range(F.q):
            for b in range(F.q):
                assert F.add(a, b) == coefficient_sum(F, a, b)
    rng = random.Random(29)
    for F in (FiniteField(7, 3, [5, 0, 0, 1]), FiniteField(3, 6, [1, 0, 0, 0, 1, 1, 1])):
        assert F.q > 256
        for _ in range(2000):
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            assert F.add(a, b) == coefficient_sum(F, a, b)


def test_field_tables_grow_linearly_in_q():
    # Every table has O(q) entries (the exp and log tables and, for odd p,
    # the Zech logarithms), so GF(3^5) retains well under 256 bytes an
    # element; a q x q addition table would hold 531 KiB.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        F = FiniteField(3, 5, [1, 2, 0, 0, 0, 1])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * F.q, retained


def sympy_poly(sympy, coeffs, p):
    """A sympy polynomial over GF(p) from coefficients, low degree first."""
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)


def test_irreducibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for p, degrees in ((3, (2, 3, 4)), (5, (2, 3)), (7, (2, 3))):
        for e in degrees:
            for low in range(p ** e):
                modulus = [low // p ** i % p for i in range(e)] + [1]
                try:
                    FiniteField(p, e, modulus)
                    accepted = True
                except ValueError as exc:
                    assert str(exc).endswith(f"is reducible over GF({p})")
                    accepted = False
                assert accepted == sympy_poly(sympy, modulus, p).is_irreducible, (p, modulus)


def test_mul_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    exhaustive = [gf9(), FiniteField(5, 2, [2, 0, 1]), FiniteField(3, 3, [1, 2, 0, 1])]
    sampled = [FiniteField(3, 6, [1, 0, 0, 0, 1, 1, 1]),
               FiniteField(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])]
    pairs = [(F, [(a, b) for a in range(F.q) for b in range(F.q)]) for F in exhaustive]
    pairs += [(F, [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(500)])
              for F in sampled]
    for F, ab in pairs:
        M = sympy_poly(sympy, F.modulus, F.p)
        polys = {a: sympy_poly(sympy, coeffs(F, a), F.p) for pair in ab for a in pair}
        for a, b in ab:
            # sympy gives GF(p) coefficients symmetrically, in (-p/2, p/2]
            rem = [int(c) % F.p for c in reversed((polys[a] * polys[b]).rem(M).all_coeffs())]
            assert F.mul(a, b) == from_coeffs(F, rem), (F, a, b)


def poly_eval(F, coeffs, x):
    """Horner evaluation of a polynomial (codec-integer coefficients, low first) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def test_poly_eval():
    F = gf9()
    # x^2 + 1 at x: the modulus root, so 0
    assert poly_eval(F, [1, 0, 1], 3) == 0
    assert poly_eval(F, [7], 5) == 7


def polynomial_route_tables(p, e, modulus):
    """Generator, exp and log of GF(p^e) from schoolbook products of
    coefficient lists reduced by the monic modulus: the first c with
    multiplicative order q - 1, then its powers."""
    q = p ** e

    def mul(a, b):
        x = [a // p ** i % p for i in range(e)]
        y = [b // p ** i % p for i in range(e)]
        prod = [0] * (2 * e - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
        for deg in range(2 * e - 2, e - 1, -1):
            # x^deg = x^(deg - e) * x^e and x^e = -(modulus below degree e)
            c = prod[deg]
            for i in range(e):
                prod[deg - e + i] -= c * modulus[i]
        return sum(c % p * p ** i for i, c in enumerate(prod[:e]))

    def power(a, n):
        acc = 1
        for _ in range(n):
            acc = mul(acc, a)
        return acc

    factors = [f for f in range(2, q) if (q - 1) % f == 0
               and all(f % d for d in range(2, f))]
    gen = next(c for c in range(1, q)
               if all(power(c, (q - 1) // f) != 1 for f in factors))
    exp, log = [], [0] * q
    v = 1
    for i in range(q - 1):
        exp.append(v)
        log[v] = i
        v = mul(v, gen)
    return gen, exp, log


# The characteristic-2 moduli of the benchmark workloads, GF(16), GF(256)
# and GF(1024), and the odd-p moduli of the examples, GF(25) and GF(81).
WORKLOAD_MODULI = [
    (2, [1, 1, 0, 0, 1]),
    (2, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
    (2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),
    (5, [2, 0, 1]),
    (3, [2, 1, 0, 0, 1]),
]


def test_tables_match_polynomial_route():
    # Every monic modulus the field accepts of degree <= 8 over GF(2)
    # (2 + 1 + 2 + 3 + 6 + 9 + 18 + 30 irreducible ones), <= 3 over GF(3)
    # (3 + 3 + 8) and <= 2 over GF(5) and GF(7) (5 + 10, 7 + 21), then the
    # workload moduli: the tables must equal the schoolbook route's.
    fields = []
    for p, max_e in ((2, 8), (3, 3), (5, 2), (7, 2)):
        for e in range(1, max_e + 1):
            for low in range(p ** e):
                try:
                    fields.append(FiniteField(p, e, [low // p ** i % p for i in range(e)] + [1]))
                except ValueError as exc:
                    assert str(exc).endswith(f"is reducible over GF({p})")
    assert len(fields) == 71 + 14 + 15 + 28
    fields += [FiniteField(p, len(mod) - 1, mod) for p, mod in WORKLOAD_MODULI]
    for F in fields:
        gen, exp, log = polynomial_route_tables(F.p, F.e, F.modulus)
        assert (F._exp[1], F._exp[:F.q - 1], F._log) == (gen, exp, log), (F.p, F.modulus)
        assert F._exp[F.q - 1:] == exp


def poly_mul(a, b, p):
    """The product of two coefficient lists over GF(p), low degree first."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return prod


def largest_irreducibles(p, e):
    """The two monic moduli of degree e with the largest codecs that the field accepts."""
    found = []
    for low in reversed(range(p ** e)):
        modulus = [low // p ** i % p for i in range(e)] + [1]
        try:
            FiniteField(p, e, modulus)
        except ValueError:
            continue
        found.append(modulus)
        if len(found) == 2:
            return found


@pytest.mark.parametrize("p, e", [(3, 5), (2, 8), (251, 1)])
def test_products_of_irreducibles_are_refused_quickly(p, e):
    # The generator search is the irreducibility test: a product f g or a
    # square f^2 leaves a ring with no element of order q - 1.  q = 3^10,
    # 2^16 and 251^2 are the largest in range for p = 3, 2 and 251.
    f, g = largest_irreducibles(p, e)
    for modulus in (poly_mul(f, g, p), poly_mul(f, f, p)):
        start = time.perf_counter()
        message = re.escape(f"modulus {modulus} is reducible over GF({p})")
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteField(p, 2 * e, modulus)
        assert time.perf_counter() - start < 2.0, modulus


def test_generator_search_does_not_walk_every_candidate(monkeypatch):
    # Each candidate is tested by c^((q-1)/l) != 1 for each prime l | q - 1,
    # so the one exp walk of the generator (q - 1 products) dominates.
    calls = [0]
    mulmod = gf._poly_mulmod

    def counted(*args):
        calls[0] += 1
        return mulmod(*args)

    monkeypatch.setattr(gf, "_poly_mulmod", counted)
    F = FiniteField(251, 2, [1, 0, 1])
    assert F._exp[1] == 256
    assert calls[0] <= 1.2 * (F.q - 1)


def test_matrix_identity_and_zero():
    F = gf2()
    eye = Matrix(F, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    red, pivots = eye.rref()
    assert red.rows == eye.rows and pivots == [0, 1, 2, 3]
    assert null_rows(eye) == []

    zero = Matrix(F, [[0, 0, 0]] * 2, 3)
    red, pivots = zero.rref()
    assert (red.nrows, red.ncols, pivots) == (0, 3, [])
    assert null_rows(zero) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_matrix_owns_its_rows():
    # The Matrix keeps the lists it is handed, and its methods leave them as
    # they are: odd p with byte digits (q <= 256 and q > 256) and with wider
    # digits, and GF(2^e).
    for F in (gf9(), KERNEL_FIELDS[7], KERNEL_FIELDS[8], gf64()):
        rows = [[1, 2, 3, 0], [2, 4, 6, 1], [0, 5, 1, 1]]
        before = [list(r) for r in rows]
        M = Matrix(F, rows)
        assert all(M.rows[i] is rows[i] for i in range(len(rows)))
        M.rref()
        null_rows(M)
        assert M.rows == before
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(gf9(), [[1, 2], [3]])


def test_nullspace_frozen_example():
    # over GF(2): checked against enumeration of all 8 vectors
    F = gf2()
    M = Matrix(F, [[1, 1, 0], [0, 1, 1]])
    assert M.rref()[1] == [0, 1]
    assert null_rows(M) == [[1, 1, 1]]


def test_rank_nullity_random():
    rng = random.Random(23)
    for F in (gf2(), gf9()):
        for _ in range(40):
            nr = rng.randrange(1, 6)
            nc = rng.randrange(1, 6)
            M = Matrix(F, [[rng.randrange(F.q) for _ in range(nc)] for _ in range(nr)])
            ns = null_rows(M)
            assert len(M.rref()[1]) + len(ns) == nc
            for row in ns:
                assert all(oracle_dot(F, m_row, row) == 0 for m_row in M.rows)


def test_rref_deterministic():
    F = gf9()
    rows = [[4, 7, 1], [2, 0, 5], [6, 7, 6]]
    first = Matrix(F, rows).rref()
    second = Matrix(F, rows).rref()
    assert first[0].rows == second[0].rows
    assert first[1] == second[1]


@st.composite
def kernel_matrices(draw):
    F = draw(st.sampled_from(KERNEL_FIELDS))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from([0, 0, 1, F.q - 1]), st.integers(0, F.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows >= 2 and draw(st.booleans()):
        # a dependent row, so rank-deficient matrices are common
        c = draw(st.integers(1, F.q - 1))
        rows.append([F.add(a, F.mul(c, b)) for a, b in zip(rows[0], rows[1])])
    return F, rows


def assert_rref_matches_oracle(M):
    """rref keeps the oracle's nonzero rows and pivots, and the oracle's
    remaining rows are all zero."""
    red, pivots = M.rref()
    rank, oracle_rows, oracle_pivots = oracle_rref(M.field, M.rows)
    assert (red.rows, pivots) == (oracle_rows[:rank], oracle_pivots)
    assert (red.nrows, red.ncols) == (len(pivots), M.ncols)
    assert not any(map(any, oracle_rows[rank:]))


@settings(max_examples=150, deadline=None)
@given(kernel_matrices())
def test_kernel_matches_scalar_oracle(case):
    F, rows = case
    M = Matrix(F, rows)
    assert_rref_matches_oracle(M)
    ns = null_rows(M)
    assert ns == oracle_nullspace(F, rows, M.ncols)
    assert all(oracle_dot(F, m_row, v) == 0 for m_row in rows for v in ns)



def test_kernel_matches_scalar_oracle_on_wide_rows():
    """70 to 90 columns, so a packed row spans several 64-bit words, with
    pivots that start deep in the row and a dependent row."""
    rng = random.Random(12)
    for F in KERNEL_FIELDS:
        for _ in range(3):
            ncols, lead = rng.randint(70, 90), rng.randrange(60)
            rows = [[0] * lead + [rng.choice([0, 0, 1, rng.randrange(F.q)])
                                  for _ in range(ncols - lead)]
                    for _ in range(rng.randint(2, 6))]
            c = rng.randrange(1, F.q)
            rows.append([F.add(a, F.mul(c, b)) for a, b in zip(rows[0], rows[1])])
            M = Matrix(F, rows)
            assert_rref_matches_oracle(M)
            assert null_rows(M) == oracle_nullspace(F, rows, ncols)


def test_kernel_matches_scalar_oracle_past_the_reduction_cap():
    """64 dependent rows of 64 columns, spanned by 60 random ones, so that a
    row takes up to 60 eliminations: far more than the 15 (GF(3^4)) and 10
    (GF(3^6)) row operations a byte digit holds between two reductions mod p.
    Without those reductions a digit of this case passes 255."""
    rng = random.Random(45)
    for F in (KERNEL_FIELDS[5], KERNEL_FIELDS[7]):
        base = [[rng.randrange(F.q) for _ in range(64)] for _ in range(60)]
        rows = []
        for _ in range(64):
            row = [0] * 64
            for b in base:
                c = rng.randrange(F.q)
                row = [F.add(a, F.mul(c, v)) for a, v in zip(row, b)]
            rows.append(row)
        M = Matrix(F, rows)
        assert len(M.rref()[1]) == 60
        assert_rref_matches_oracle(M)


def test_every_wider_slot_holds_two_row_operations():
    """A slot of several bytes with room for one row operation only would make rref
    reduce every row, slot by slot, at every pivot, so such a slot takes one byte
    more: 3 bytes for GF(191) and 5 for GF(65521), where e(p - 1)^2 + p - 1
    fits in 2 and 4."""
    from kummercodes.matrix import _layout
    gf65521 = FiniteField(65521, 1, [65518, 1])
    for F in KERNEL_FIELDS + [gf65521]:
        w, p, e = _layout(F)[0], F.p, F.e
        assert w <= 1 or 256 ** w - p >= 2 * e * (p - 1) ** 2, F
    assert [_layout(F)[0] for F in (KERNEL_FIELDS[-1], gf65521)] == [3, 5]


def test_gf_resolves_the_matrix_names_from_matrix():
    """perfbench/traced_job.py traces row reduction as ("kummercodes.gf",
    "Matrix.rref"), so gf hands out the very Matrix of matrix, and no more."""
    from kummercodes import matrix
    assert gf.Matrix is matrix.Matrix
    for name in ("pack", "unpack"):
        assert not hasattr(gf, name) and not hasattr(matrix, name)
    assert not {"Matrix", "_cell", "_scaled", "struct"} & set(vars(gf))
