"""Code construction, designed bounds and the brute-force oracle."""

from __future__ import annotations

import itertools
import math
import random
from operator import ne

import pytest
from hypothesis import assume, given, settings, strategies as st

from kummercodes.agcode import (LinearCode, brute_force_distance, build_cl, build_comega,
                                coefficient_at, evaluation_matrix, evaluation_places)
from kummercodes.curve import KummerCurve, Place
from kummercodes.gf import FiniteField
from kummercodes.matrix import Matrix
from kummercodes.rrlattice import Divisor, dimension, omega_enumerate
from kummercodes.verify import EXAMPLES
from kummercodes.weierstrass import (GapBox, PlaceTuple, floor_divisor, floor_pair_bound,
                                     pure_gap_box_bound)
from test_curve import count_made_places, curve_hermitian_gf4, f_at
from test_gf import oracle_dot, oracle_nullspace, power


def herm():
    return curve_hermitian_gf4()


def orthogonal(cl, co):
    """Every row of one generator is orthogonal to every row of the other,
    by scalar dot products independent of the matrix kernel."""
    dual_rows = list(co.rows())
    return all(oracle_dot(cl.field, u, v) == 0 for u in cl.rows() for v in dual_rows)


def test_streamed_comega_rows_equal_oracle_nullspace():
    # Rows made one at a time from the RREF equal the null space the scalar
    # oracle builds whole, over GF(2^e) and odd p, rank-deficient or not.
    rng = random.Random(16)
    for F in DISTANCE_FIELDS + PROPERTY_FIELDS:
        for _ in range(8):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 12)
            rows = [[rng.choice([0, 1, rng.randrange(F.q)]) for _ in range(ncols)]
                    for _ in range(nrows)]
            streamed = LinearCode(*Matrix(F, rows, ncols).rref())
            assert list(streamed.rows()) == oracle_nullspace(F, rows, ncols)
            assert streamed.k == len(oracle_nullspace(F, rows, ncols))
    c = herm()
    D = evaluation_places(c, Divisor((0, 0), -1))
    # ell(G) = 0: no parity check, so C_Omega is the whole space, the identity.
    whole = build_comega(c, Divisor((0, 0), -1), D)
    assert list(whole.rows()) == [[int(i == j) for j in range(len(D))] for i in range(len(D))]
    # k = 0: n = ell(G), so C_Omega is the zero code and yields no row.
    zero = build_comega(c, Divisor((0, 0), 0), D[:1])
    assert zero.k == 0 and list(zero.rows()) == [] and list(zero.export()) == ["1 0 4\n"]


def test_in_support():
    G = Divisor((3, 0), 1)
    assert coefficient_at(G, Place.ramified(1))
    assert not coefficient_at(G, Place.ramified(2))
    assert coefficient_at(G, Place.infinity())
    assert not coefficient_at(G, Place(2, x=1, y=1))


def test_evaluation_places_default_pool():
    c = herm()
    G = Divisor((0, 0), 3)
    D = evaluation_places(c, G)
    assert len(D) == 8  # 9 places minus P_inf
    assert all(p.kind_rank != 0 for p in D)

    # with t = 0 the place at infinity joins the pool
    D0 = evaluation_places(c, Divisor((1, 0), 0))
    assert any(p.kind_rank == 0 for p in D0)
    assert len(D0) == 8


def test_evaluation_places_selection():
    c = herm()
    G = Divisor((0, 0), 3)
    full = evaluation_places(c, G)
    assert evaluation_places(c, G, n=6) == full[:6]
    seeded = evaluation_places(c, G, n=6, seed=2)
    assert seeded == evaluation_places(c, G, n=6, seed=2)
    assert len(seeded) == 6
    assert all(p in full for p in seeded)
    with pytest.raises(ValueError):
        evaluation_places(c, G, n=9)


def test_evaluation_places_without_seed_are_the_first_n():
    # Without a seed the place stream stops at the n-th place off supp(G),
    # having made at most n + |supp(G)| places; the refusals keep their wording.
    for make, G in ((herm, Divisor((0, 0), 3)), (herm, Divisor((1, 0), 0)),
                    (EXAMPLES[2].curve, Divisor((26, 1, 0, 0, 0), 0))):
        full = evaluation_places(make(), G)
        assert full == [p for p in make().iter_places() if not coefficient_at(G, p)]
        support = sum(map(bool, G.s + (G.t,)))
        for n in range(len(full) + 1):
            c = make()
            made = count_made_places(c)
            assert evaluation_places(c, G, n) == full[:n]
            assert made[0] <= n + support
    c = herm()
    G = Divisor((0, 0), 3)
    for n, seed in ((9, None), (9, 2), (-1, None)):
        with pytest.raises(ValueError) as refusal:
            evaluation_places(c, G, n, seed)
        assert str(refusal.value) == f"asked for n={n} places; 0 to 8 are available"


def test_build_cl_hermitian():
    # G = 3 P_inf over GF(4): [8, 3] with exact distance 5 = Goppa bound
    c = herm()
    G = Divisor((0, 0), 3)
    D = evaluation_places(c, G)
    code = build_cl(c, G, D)
    assert (code.n, code.k) == (8, 3)
    assert ("goppa_L", 5) in code.bounds
    assert brute_force_distance(code) == 5


class PoleAtPlaceError(ValueError):
    pass


class UnsupportedPlaceError(ValueError):
    pass


def evaluate_monomial(curve, pt, place):
    """Value of the basis monomial at a rational place (codec integer).

    Requires the monomial to have no pole there.  At the ramified places
    and at infinity the value comes from the substitution
    x - alpha_mu = z^m * prod_{nu != mu} (x - alpha_nu)^{-1}, which
    rewrites the monomial so its local valuation is explicit.
    """
    F = curve.field
    m = curve.m
    roots = curve.roots
    i, js = pt.i, pt.j

    if place.kind_rank == 2:
        z0 = F.mul(power(F, place.y, curve.A), power(F, f_at(curve, place.x), curve.B))
        val = power(F, z0, i)
        for j, alpha in zip(js, roots[1:]):
            if j:
                val = F.mul(val, power(F, F.add(place.x, F.neg(alpha)), j))
        return val

    if place.kind_rank == 1:
        mu = place.mu
        if mu == 1:
            w = i
            if w < 0:
                raise PoleAtPlaceError(f"monomial has a pole at P_{mu}")
            if w > 0:
                return 0
            val = 1
            for j, alpha in zip(js, roots[1:]):
                if j:
                    val = F.mul(val, power(F, F.add(roots[0], F.neg(alpha)), j))
            return val
        w = i + m * js[mu - 2]
        if w < 0:
            raise PoleAtPlaceError(f"monomial has a pole at P_{mu}")
        if w > 0:
            return 0
        jmu = js[mu - 2]
        alpha_mu = roots[mu - 1]
        val = power(F, F.add(alpha_mu, F.neg(roots[0])), -jmu)
        for nu in range(2, curve.r + 1):
            if nu == mu:
                continue
            exp = js[nu - 2] - jmu
            if exp:
                val = F.mul(val, power(F, F.add(alpha_mu, F.neg(roots[nu - 1])), exp))
        return val

    if place.kind_rank == 0:
        # The monomial is t^-w times a unit that is 1 at P_inf, for a
        # local parameter t there, so its value is 1 or 0 once w <= 0.
        w = curve.r * i + m * sum(js)  # pole order at P_inf
        if w > 0:
            raise PoleAtPlaceError("monomial has a pole at P_inf")
        return 1 if w == 0 else 0

    raise UnsupportedPlaceError(f"cannot evaluate at place kind_rank {place.kind_rank}")


def evaluation_curves():
    """The example curves, and curves with lambda = 2 and 3.

    Every example curve has lambda = 1 and B = 0, while these have B = -1,
    -1 and -2.  Every example f also has f' = 1, so prod_{nu != mu}
    (alpha_mu - alpha_nu) = f'(alpha_mu) = 1 and the exponent -j_mu of
    those factors never shows at P_mu; the other roots are chosen freely.
    """
    ex2, ex4 = EXAMPLES[2].curve(), EXAMPLES[4].curve()
    return [EXAMPLES[1].curve(), ex2, ex4, herm(),
            KummerCurve(ex4.field, 9, 2, (1, 2, 3, 5)),
            KummerCurve(ex2.field, 8, 3, (0, 1, 2, 3, 7)),
            KummerCurve(ex4.field, 7, 3, (0, 4, 9, 17))]


def test_evaluation_matrix_matches_evaluate_monomial():
    ex4 = EXAMPLES[4].curve()
    fixed = [
        (EXAMPLES[1].curve(), Divisor.make(9, {1: 51}, 1)),
        (EXAMPLES[2].curve(), Divisor.make(5, {1: 26, 2: 1})),
        (ex4, Divisor.make(4, {1: 28, 2: 1}, 8)),
        (KummerCurve(ex4.field, 9, 2, ex4.roots), Divisor.make(4, {1: 9, 3: 2}, 5)),
    ]
    cases = []
    for c, G in fixed:
        D = evaluation_places(c, G)
        assert {p.kind_rank for p in D} >= {1, 2}
        cases.append((c, G, D))
    rng = random.Random(8)
    for c in evaluation_curves():
        for trial in range(12):
            # Zero coefficients keep their places in the evaluation set.  Equal
            # s_mu (odd trials) make consecutive lattice points move every j_mu.
            coeff = lambda: rng.choice([0, rng.randrange(-c.m, 3 * c.m)])
            s = [coeff()] * c.r if trial % 2 else [coeff() for _ in range(c.r)]
            G = Divisor(tuple(s), coeff())
            # every P_mu and P_inf off supp(G), then 40 affine places
            cases.append((c, G, evaluation_places(c, G)[:c.r + 1 + 40]))
    nontrivial = 0  # values at P_mu, mu >= 2, other than 0 and 1
    several = 0  # consecutive lattice points that move two or more j_mu
    for c, G, D in cases:
        pts = omega_enumerate(c, G)
        expected = [[evaluate_monomial(c, pt, pl) for pl in D] for pt in pts]
        assert evaluation_matrix(c, G, D).rows == expected
        ramified = [col for col, pl in enumerate(D) if pl.mu >= 2]
        nontrivial += sum(row[col] > 1 for row in expected for col in ramified)
        several += sum(sum(map(ne, a.j, b.j)) >= 2 for a, b in zip(pts, pts[1:]))
    assert nontrivial >= 100 and several >= 100


def test_build_cl_rejects_support():
    c = herm()
    G = Divisor((1, 0), 3)
    for place in (Place.ramified(1), Place.infinity()):
        with pytest.raises(ValueError, match=rf"^place {place} lies in supp\(G\)$"):
            build_cl(c, G, [place])
        with pytest.raises(ValueError, match=rf"^place {place} lies in supp\(G\)$"):
            evaluation_matrix(c, G, [Place.ramified(2), place])
    with pytest.raises(ValueError, match="pairwise distinct"):
        evaluation_matrix(c, G, [Place.ramified(2), Place.ramified(2)])


def test_repetition_code():
    c = herm()
    G = Divisor((0, 0), 0)
    D = evaluation_places(c, G)
    code = build_cl(c, G, D)
    assert code.k == 1
    assert list(code.rows()) == [[1] * code.n]
    assert brute_force_distance(code) == code.n


def test_comega_duality_and_dimensions():
    c = herm()
    G = Divisor((0, 0), 3)
    D = evaluation_places(c, G)
    cl = build_cl(c, G, D)
    co = build_comega(c, G, D)
    assert cl.k + co.k == cl.n
    assert orthogonal(cl, co)
    # dimension law: k_omega = n + g - 1 - deg(G)
    assert co.k == cl.n + c.g - 1 - G.degree
    assert ("goppa_omega", G.degree - (2 * c.g - 2)) in co.bounds
    assert brute_force_distance(co) >= G.degree - (2 * c.g - 2)


def test_comega_checks_its_dimension_on_special_divisors(monkeypatch):
    # Evaluation is injective on L(G) whenever deg G < n, so build_comega checks
    # k = n - ell(G) there, deg G <= 2g - 2 included, where ell(G) > deg G + 1 - g.
    c = EXAMPLES[2].curve()  # g = 10; the pole orders at Pinf up to 6 are 0, 5 and 6
    G = Divisor.make(c.r, t=6)
    D = evaluation_places(c, G)
    assert (len(D), build_comega(c, G, D).k) == (125, 122)
    monkeypatch.setattr("kummercodes.agcode.dimension", lambda curve, G: 4)
    with pytest.raises(AssertionError,
                       match="^dimension law violated: k_omega=122, expected 121$"):
        build_comega(c, G, D)


def test_cl_checks_its_dimension_on_special_divisors(monkeypatch):
    # The twin of the C_Omega check: k_L = ell(G) whenever deg G < n.
    c = EXAMPLES[2].curve()
    G = Divisor.make(c.r, t=6)
    D = evaluation_places(c, G)
    assert (len(D), build_cl(c, G, D).k) == (125, 3)
    monkeypatch.setattr("kummercodes.agcode.dimension", lambda curve, G: 4)
    with pytest.raises(AssertionError,
                       match="^dimension law violated: k_L=3, expected 4$"):
        build_cl(c, G, D)


def test_column_permutation_invariance():
    c = herm()
    G = Divisor((0, 0), 3)
    D = evaluation_places(c, G)
    rng = random.Random(3)
    perm = list(D)
    rng.shuffle(perm)
    a = build_cl(c, G, D)
    b = build_cl(c, G, perm)
    assert (a.n, a.k) == (b.n, b.k)
    assert brute_force_distance(a) == brute_force_distance(b)


def naive_distance(code):
    """Minimum weight over all q^k - 1 nonzero messages, with no normalisation.
    Each row's q scalar multiples are formed once; a codeword is the F.add
    sum of the chosen multiples."""
    F = code.field
    multiples = [[[F.mul(c, v) for v in row] for c in range(F.q)]
                 for row in code.rows()]
    best = None
    for msg in itertools.product(range(F.q), repeat=code.k):
        if not any(msg):
            continue
        cw = [0] * code.n
        for mi, row_multiples in zip(msg, multiples):
            if mi:
                cw = list(map(F.add, cw, row_multiples[mi]))
        w = sum(1 for v in cw if v)
        best = w if best is None else min(best, w)
    return best


def test_brute_force_matches_naive():
    c = herm()
    G = Divisor((0, 0), 4)
    D = evaluation_places(c, G)
    code = build_cl(c, G, D)
    assert brute_force_distance(code) == naive_distance(code)


DISTANCE_FIELDS = [
    FiniteField(2, 1, [0, 1]),
    FiniteField(2, 2, [1, 1, 1]),
    FiniteField(3, 1, [0, 1]),
    FiniteField(3, 2, [1, 0, 1]),
    FiniteField(5, 1, [0, 1]),
    FiniteField(2, 4, [1, 1, 0, 0, 1]),
    FiniteField(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),
]


@st.composite
def full_rank_codes(draw):
    """A full-rank k x n generator, k >= 1, q^k <= 4096 and up to 70 coordinates,
    in RREF or not (an RREF last row is zero at the other rows' pivots).
    The entries come from one drawn seed, each 0 or 1 half the time and any
    field element otherwise: drawing them one by one cost more than the oracle."""
    F = draw(st.sampled_from(DISTANCE_FIELDS))
    k = draw(st.integers(1, max(kk for kk in range(1, 7) if F.q ** kk <= 4096)))
    n = draw(st.integers(k, 70))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [[rng.randrange(2) if rng.random() < 0.5 else rng.randrange(F.q) for _ in range(n)]
            for _ in range(k)]
    red, pivots = Matrix(F, rows, n).rref()
    assume(len(pivots) == k)
    return LinearCode(red if draw(st.booleans()) else Matrix(F, rows, n))


@settings(max_examples=120, deadline=None)
@given(full_rank_codes())
def test_normalised_distance_matches_full_enumeration(code):
    assert brute_force_distance(code) == naive_distance(code)


def test_brute_force_edge_cases():
    c = herm()
    G = Divisor((0, 0), 3)
    D = evaluation_places(c, G)
    cl = build_cl(c, G, D)
    with pytest.raises(ValueError, match=r"^4\^3 - 1 codewords exceed budget 10$"):
        brute_force_distance(cl, budget=10)
    # a zero-dimensional code has no distance
    zero = build_comega(c, Divisor((0, 0), 0), D[:1])
    assert zero.k == 0
    assert brute_force_distance(zero) is None


def test_brute_force_refuses_a_huge_code_by_its_power():
    # 256^1929 - 1 has 4646 digits, past Python's int-to-str limit, so the
    # refusal names the power: the [2000, 1929] C_Omega of the GF(256)
    # Hermitian curve once failed to print its count.
    F = DISTANCE_FIELDS[-1]
    huge = LinearCode(Matrix(F, [[1]] * 1929))
    with pytest.raises(ValueError, match=r"^256\^1929 - 1 codewords exceed budget 16777216$"):
        brute_force_distance(huge)


def test_brute_force_refuses_more_than_64_rows(monkeypatch):
    # The search recurses once per row; with the budget out of the way, the
    # 1929-row code is refused at once, before a multiple is formed, not by a
    # RecursionError or a search that never ends.
    F = DISTANCE_FIELDS[-1]
    huge = LinearCode(Matrix(F, [[1]] * 1929))
    monkeypatch.setattr(F, "mul", lambda a, b: pytest.fail("a multiple was built"))
    with pytest.raises(ValueError, match=r"^1929 rows exceed the search depth 64$"):
        brute_force_distance(huge, budget=256 ** 1929)


def test_brute_force_on_reed_solomon_codes_over_large_fields():
    # Reed-Solomon codes are MDS, d = n - k + 1: rows 1 and x at 40 distinct points
    # give d = 39, and x alone d = 40.  The property test reaches k >= 2 only for
    # q <= 64; these have k = 2 over GF(2^10), GF(3^6) and the prime field GF(251).
    points = list(range(1, 41))
    for F in (FiniteField(2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),
              FiniteField(3, 6, [1, 0, 0, 0, 1, 1, 1]), FiniteField(251, 1, [0, 1])):
        assert brute_force_distance(LinearCode(Matrix(F, [[1] * 40, points]))) == 39
        assert brute_force_distance(LinearCode(Matrix(F, [points]))) == 40


def test_singleton_bound():
    c = herm()
    for t in range(1, 6):
        G = Divisor((0, 0), t)
        D = evaluation_places(c, G)
        for code in (build_cl(c, G, D), build_comega(c, G, D)):
            if code.k == 0:
                continue
            d = brute_force_distance(code)
            assert code.k + d <= code.n + 1


def test_designed_bounds():
    c = EXAMPLES[2].curve()
    G = Divisor.make(c.r, {1: 26, 2: 1})
    D = evaluation_places(c, G)
    assert len(D) == 124
    assert dict(build_comega(c, G, D).bounds)["goppa_omega"] == 27 - 18
    assert dict(build_cl(c, G, D).bounds)["goppa_L"] == 124 - 27
    box = GapBox(PlaceTuple(2), (13, 1), (1, 0))
    assert box.induced_divisor(c.r) == G
    assert pure_gap_box_bound(c, box) == 12
    assert floor_pair_bound(c, Divisor.make(c.r, {1: 13})) == 2 * 13 - 18


@pytest.mark.parametrize("dual, t, n, k, bounds", [
    (False, 7, 8, 7, [("goppa_L", 1)]),  # deg G = n - 1
    (False, 8, 8, 7, []),  # deg G = n: x^4 - x vanishes on D
    (False, -1, 8, 0, []),  # n - deg G > 0, but the code is empty
    (True, 1, 8, 7, [("goppa_omega", 1)]),  # deg G = 2g - 1
    (True, 0, 9, 8, []),  # deg G = 2g - 2
    (True, 9, 8, 0, []),  # deg G - (2g - 2) > 0, but the code is empty
])
def test_goppa_bound_is_attached_where_k_and_the_bound_are_positive(dual, t, n, k, bounds):
    # On the GF(4) Hermitian curve (g = 1) at every place off G = t P_inf.
    c = herm()
    G = Divisor((0, 0), t)
    D = evaluation_places(c, G)
    code = (build_comega if dual else build_cl)(c, G, D)
    assert (code.n, code.k, code.bounds) == (n, k, bounds)


def test_designed_bound_refusals():
    c = EXAMPLES[2].curve()
    with pytest.raises(ValueError, match=r"^\(14, 2\) in the box is not a pure gap$"):
        pure_gap_box_bound(c, GapBox(PlaceTuple(2), (13, 2), (1, 0)))
    with pytest.raises(ValueError, match="not a pure gap"):
        # leaves the pure-gap region
        pure_gap_box_bound(c, GapBox(PlaceTuple(2), (1, 1), (20, 0)))
    with pytest.raises(ValueError, match="^expected 2 coordinates, got 1$"):
        pure_gap_box_bound(c, GapBox(PlaceTuple(2), (13,), (1,)))
    with pytest.raises(ValueError, match="^H must be effective$"):
        floor_pair_bound(c, Divisor.make(c.r, {1: -1}))


def test_export_text_format():
    c = herm()
    G = Divisor((0, 0), 3)
    D = evaluation_places(c, G)
    code = build_cl(c, G, D)
    lines = "".join(code.export()).splitlines()
    assert lines[0] == f"{code.n} {code.k} 4"
    assert len(lines) == 1 + code.k
    parsed = [[int(v) for v in row.split()] for row in lines[1:]]
    assert parsed == list(code.rows()) == code.matrix.rows


def test_null_space_export_equals_its_dense_rows():
    """A null space writes each line from its sparse view; every line must
    equal the dense row of rows() joined, over p = 2 and odd p, rank-deficient
    or not, with free columns before the first pivot, between pivots and after
    the last."""
    rng = random.Random(25)
    seen = set()
    for F in DISTANCE_FIELDS + PROPERTY_FIELDS:
        for _ in range(12):
            nrows, ncols, lead = rng.randint(1, 6), rng.randint(2, 14), rng.randrange(3)
            rows = [[0] * lead + [rng.choice([0, 0, 1, rng.randrange(F.q)])
                                  for _ in range(ncols - lead)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                c = rng.randrange(1, F.q)
                rows.append([F.add(a, F.mul(c, b)) for a, b in zip(rows[0], rows[1])])
            code = LinearCode(*Matrix(F, rows, ncols).rref())
            assert list(code.export()) == [f"{code.n} {code.k} {F.q}\n"] + [
                " ".join(map(str, row)) + "\n" for row in code.rows()]
            for fc in set(range(ncols)).difference(code.pivots):
                if code.pivots:
                    seen.add(("before" if fc < code.pivots[0] else "after"
                              if fc > code.pivots[-1] else "between"))
            if len(code.pivots) < nrows:
                seen.add("rank-deficient")
    assert seen == {"before", "between", "after", "rank-deficient"}


def test_linear_codes_do_not_share_bounds():
    F = FiniteField(2, 1, [0, 1])
    a, b = LinearCode(Matrix(F, [[1, 1]])), LinearCode(Matrix(F, [[1, 1]]))
    a.bounds.append(("goppa_L", 1))
    assert a.bounds == [("goppa_L", 1)] and b.bounds == []
    assert LinearCode(Matrix(F, [[1, 0]])).bounds == []


PROPERTY_FIELDS = [
    FiniteField(2, 1, [0, 1]),
    FiniteField(3, 1, [0, 1]),
    FiniteField(2, 2, [1, 1, 1]),
    FiniteField(5, 1, [0, 1]),
    FiniteField(7, 1, [0, 1]),
    FiniteField(2, 3, [1, 1, 0, 1]),
    FiniteField(3, 2, [1, 0, 1]),
    FiniteField(2, 4, [1, 1, 0, 0, 1]),
    FiniteField(5, 2, [2, 0, 1]),
    FiniteField(3, 3, [1, 2, 0, 1]),
    FiniteField(2, 5, [1, 0, 1, 0, 0, 1]),
    FiniteField(7, 2, [1, 0, 1]),
    FiniteField(2, 6, [1, 1, 0, 0, 0, 0, 1]),
]


@st.composite
def curve_codes(draw):
    """A valid curve over GF(q), q <= 64, a divisor G, and an evaluation set
    D off supp(G) with deg G < n = |D| <= 60."""
    F = draw(st.sampled_from(PROPERTY_FIELDS))
    m = draw(st.sampled_from([m for m in range(2, 10) if m % F.p]))
    roots = draw(st.lists(st.integers(0, F.q - 1), min_size=1, max_size=min(F.q, 5),
                          unique=True))
    lam = draw(st.integers(1, 4))
    assume(math.gcd(m, len(roots) * lam) == 1)
    c = KummerCurve(F, m, lam, roots)
    coeff = st.one_of(st.just(0), st.integers(-m, 3 * m))
    G = Divisor(tuple(draw(st.lists(coeff, min_size=c.r, max_size=c.r))), draw(coeff))
    top = min(len(evaluation_places(c, G)), 60)
    assume(G.degree < top)
    n = draw(st.integers(max(G.degree + 1, 0), top))
    D = evaluation_places(c, G, n=n, seed=draw(st.none() | st.integers(0, 99)))
    return c, G, D


@settings(max_examples=150, deadline=None)
@given(curve_codes())
def test_random_curve_code_properties(case):
    c, G, D = case
    assert len(evaluation_matrix(c, G, D).rref()[1]) == dimension(c, G)
    cl, co = build_cl(c, G, D), build_comega(c, G, D)
    assert cl.k + co.k == len(D)
    assert orthogonal(cl, co)
    if dimension(c, G) > 0:
        flo = floor_divisor(c, G)
        assert dimension(c, flo) == dimension(c, G) and (G - flo).is_effective()
    for code in (cl, co):
        if code.k and c.field.q ** code.k <= 4096:
            d = brute_force_distance(code)
            assert all(d >= value for _, value in code.bounds)
