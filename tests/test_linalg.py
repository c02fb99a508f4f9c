import copy
import hashlib
import itertools
import json
import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex import kernel
from ncomplex.fields import QQ, make_cyclotomic, rat
from ncomplex.linalg import (
    Echelon,
    EchelonSolver,
    ExactMatrix,
    QuotientSpace,
    Subspace,
    commutation,
    image_basis,
    index_tuple,
    intersection,
    kernel_basis,
    kron,
    orbit_span,
    place_blocks,
    power_images,
    quotient_maps,
    rank,
    restrict,
    span,
)
from ncomplex.ndiff import NDiffModule, block_module, homology, random_unimodular, submodule
from helpers import (
    OracleQuotient,
    from_int_rows,
    oracle_coordinates,
    oracle_quotient_maps,
    random_scalar,
    tuple_index,
)


def dense_rref(rows, field):
    """Dense Gauss-Jordan elimination from the Field's scalar operations,
    independent of the kernel; returns (pivot columns, nonzero RREF rows)."""
    m = [list(row) for row in rows]
    pivots = []
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        rk = len(pivots)
        piv = next((r for r in range(rk, len(m)) if not field.is_zero(m[r][c])), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = field.inv(m[rk][c])
        m[rk] = [field.mul(inv, v) for v in m[rk]]
        for r in range(len(m)):
            if r != rk and not field.is_zero(m[r][c]):
                f = m[r][c]
                m[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[r], m[rk])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


def dense_rank_oracle(rows, field=None):
    """The rank of dense rows: ints over Q, or the scalars of ``field``."""
    if field is None:
        rows, field = [[rat(x) for x in row] for row in rows], QQ
    return len(dense_rref(rows, field)[0])


def random_int_matrix(rng, nrows, ncols, density=0.6, span=4):
    return [
        [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rank_trivial_cases():
    assert rank(ExactMatrix.identity(5, QQ)) == 5
    assert rank(ExactMatrix.zeros(3, 4, QQ)) == 0
    assert kernel_basis(ExactMatrix.zeros(3, 4, QQ)).dim == 4
    assert kernel_basis(ExactMatrix.identity(5, QQ)).dim == 0


def test_jordan_block_rank_profile():
    # single 3x3 block with superdiagonal ones
    D3 = from_int_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]], QQ)
    assert rank(D3) == 2
    assert rank(D3 @ D3) == 1
    assert rank(D3 @ D3 @ D3) == 0


@pytest.mark.parametrize("seed", range(12))
def test_rank_against_oracle_and_transpose(seed):
    rng = random.Random(seed)
    rows = random_int_matrix(rng, rng.randint(1, 30), rng.randint(1, 30))
    M = from_int_rows(rows, QQ, ncols=len(rows[0]))
    r = rank(M)
    assert r == dense_rank_oracle(rows)
    assert r == rank(M.transpose())


@pytest.mark.parametrize("seed", range(8))
def test_kernel_image_rank_nullity(seed):
    rng = random.Random(100 + seed)
    rows = random_int_matrix(rng, rng.randint(2, 20), rng.randint(2, 20))
    M = from_int_rows(rows, QQ, ncols=len(rows[0]))
    K = kernel_basis(M)
    I = image_basis(M)
    assert (M @ K.basis).is_zero()
    assert K.dim + I.dim == M.ncols
    assert rank(K.basis) == K.dim
    assert rank(I.basis) == I.dim


def test_solver_membership():
    rng = random.Random(7)
    rows = random_int_matrix(rng, 9, 6)
    M = from_int_rows(rows, QQ, ncols=6)
    x = {0: rat(2), 3: rat(-1, 2), 5: rat(1)}
    b = M.apply(x)
    sol = EchelonSolver(M).solve(b)
    assert sol is not None
    assert M.apply(sol) == b
    # inconsistent system
    M2 = from_int_rows([[1, 0], [1, 0]], QQ)
    assert EchelonSolver(M2).solve({0: rat(1), 1: rat(2)}) is None


def test_solver_reuse():
    rng = random.Random(8)
    rows = random_int_matrix(rng, 7, 7, density=0.8)
    M = from_int_rows(rows, QQ)
    sol = EchelonSolver(M)
    for k in range(5):
        x = {rng.randint(0, 6): rat(rng.randint(-3, 3)) for _ in range(3)}
        b = M.apply(x)
        got = sol.solve(b)
        assert got is not None and M.apply(got) == b


def test_quotient_coordinates_examples():
    Z = Subspace.full(2, QQ)
    q = QuotientSpace(Z, span(from_int_rows([[1], [0]], QQ)))
    # v in B -> zero coordinates
    assert q.coordinates({0: rat(3)}) == {}
    # v = e2 -> coordinate 1 against complement {e2}
    assert q.coordinates({1: rat(1)}) == {0: rat(1)}
    # B = span(e1 + e2): e1 and e2 both complement B, the rule keeps the last
    q = QuotientSpace(Z, span(from_int_rows([[1], [1]], QQ)))
    assert q.complement_positions == [1]
    assert q.coordinates({0: rat(1)}) == {0: rat(-1)}
    assert q.coordinates({1: rat(1)}) == {0: rat(1)}


def test_quotient_dimension_random():
    rng = random.Random(42)
    A = from_int_rows(random_int_matrix(rng, 8, 5), QQ, ncols=5)
    Z = image_basis(A)
    B = image_basis(A.take_columns([0, 1]))
    q = QuotientSpace(Z, span(B.basis))
    assert q.dim == Z.dim - B.dim
    reps = q.representatives()
    # representatives are independent and lie in Z
    assert rank(B.basis.hstack(reps)) == B.dim + q.dim
    for col in reps.columns():
        assert Z.contains(col)
    # class of any B-vector is zero
    assert q.coordinates(B.basis.columns()[0]) == {}


def _random_basis(f, rng, n):
    """A basis of independent columns, some rows zero, as a fresh Subspace."""
    cols = [{i: random_scalar(f, rng, 3) for i in rng.sample(range(n), rng.randint(1, n - 1))}
            for _ in range(rng.randint(1, 4))]
    return Subspace(n, image_basis(ExactMatrix.from_columns(cols, n, f)).basis)


def _row_rank_profile(B, order):
    """The rows of B, in ``order``, that raise the rank of those before them:
    the dense RREF pivots of B^T with its columns in that order."""
    dense = [[row.get(i, B.field.zero) for i in order] for row in B.columns()]
    return sorted(order[p] for p in dense_rref(dense, B.field)[0])


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Qzeta3"])
def test_coordinates_match_the_full_basis_solver(field):
    """One coordinate rule: read at the positions S, solved by B_S and
    checked off S, against one ``EchelonSolver`` of the whole basis, with the
    default positions (the row rank profile, against a dense oracle) and with
    another invertible S.  A vector outside the span is refused, also when it
    agrees with a member of the span on S."""
    f, rng = field, random.Random(46)
    for _ in range(40):
        n = rng.randint(2, 7)
        S = _random_basis(f, rng, n)
        assert S.positions == _row_rank_profile(S.basis, list(range(n)))
        order = rng.sample(range(n), n)
        other = Subspace(n, S.basis, positions=_row_rank_profile(S.basis, order))
        for T in (S, other):
            for _ in range(4):
                x = {k: random_scalar(f, rng, 3) for k in range(T.dim)}
                x = {k: c for k, c in x.items() if not f.is_zero(c)}
                v = T.basis.apply(x)
                assert T.coordinates(v) == oracle_coordinates(T, v) == x
                off = [r for r in range(n) if r not in T.positions]
                if off:  # w agrees with v on S, so it lies outside the span
                    r = rng.choice(off)
                    w = {**v, r: f.add(v.get(r, f.zero), f.one)}
                    w = {i: c for i, c in w.items() if not f.is_zero(c)}
                    assert oracle_coordinates(T, w) is None
                    assert T.coordinates(w) is None
                u = {r: random_scalar(f, rng, 2) for r in range(n)}
                assert T.coordinates(u) == oracle_coordinates(T, u)


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Qzeta3"])
def test_a_dependent_basis_is_refused(field):
    """B = [e_0, 2 e_0] has rank 1 at its one position: the first coordinate
    read raises, so ``restrict`` and ``submodule`` refuse it instead of
    building a 2-dimensional answer for a 1-dimensional span."""
    f = field
    S = Subspace(2, ExactMatrix.from_columns([{0: f.one}, {0: f.from_rat(2)}], 2, f))
    assert S.positions == [0]
    with pytest.raises(ValueError, match="2 columns has rank 1"):
        restrict(ExactMatrix.identity(2, f), S, S)
    with pytest.raises(ValueError, match="2 columns has rank 1"):
        submodule(NDiffModule(2, ExactMatrix.zeros(2, 2, f)), S)
    with pytest.raises(ValueError, match="2 columns has rank 1"):
        Subspace(2, S.basis, positions=[0, 1]).coordinates({})


def test_quotient_space_is_one_elimination(elimination_counts):
    """A quotient of a kernel basis Z is one short elimination, the kernel of
    B's rows read at Z's positions, and builds no EchelonSolver; reading
    classes and representatives eliminates nothing more."""
    e = [{i: rat(1)} for i in range(4)]
    # Z = span(e_0, e_1 + e_2, e_3) = ker [0 1 -1 0], with positions 0, 2, 3
    Z = kernel_basis(from_int_rows([[0, 1, -1, 0]], QQ))
    assert Z.basis == ExactMatrix.from_columns([e[0], {1: rat(1), 2: rat(1)}, e[3]], 4, QQ)
    assert Z.positions == [0, 2, 3]
    B = span(ExactMatrix.from_columns([{0: rat(1), 3: rat(1)}], 4, QQ))
    q = QuotientSpace(Z, B)
    assert elimination_counts == {"solvers": 0, "row_echelon": 2}
    assert Z._read[1] is None  # B_S = I: no solver
    # z_0 = (e_0 + e_3) - z_2 is the column B covers; z_1 and z_2 stay
    assert q.complement_positions == [1, 2]
    assert q.class_map == ExactMatrix.from_columns([{1: rat(-1)}, {0: rat(1)}, {1: rat(1)}], 2, QQ)
    assert q.coordinates(e[0]) == {1: rat(-1)}
    assert q.coordinates({1: rat(2), 2: rat(2), 3: rat(1)}) == {0: rat(2), 1: rat(1)}
    assert q.coordinates({0: rat(1), 3: rat(1)}) == {}
    with pytest.raises(ValueError, match="vector not in Z"):
        q.coordinates(e[1])
    # e_2 lies on a unit row of Z, but Z's column there is e_1 + e_2
    with pytest.raises(ValueError, match="vector not in Z"):
        q.coordinates(e[2])
    assert q.representatives() is q.representatives()
    assert elimination_counts == {"solvers": 0, "row_echelon": 2}
    assert Z._read[1] is None  # B_S = I: no solver


def test_quotient_refuses_on_the_unit_rows():
    """A vector, or a B, supported on Z's positions alone may still leave Z:
    the membership check runs whatever the support, unless Z is the whole
    space."""
    f = QQ
    # Z = ker [1 1 0] = span(e_1 - e_0, e_2), with positions 1 and 2
    Z = kernel_basis(from_int_rows([[1, 1, 0]], f))
    assert Z.positions == [1, 2]
    q = QuotientSpace(Z, span(ExactMatrix.zeros(3, 0, f)))
    for v in ({1: rat(1)}, {1: rat(2), 2: rat(1)}):
        with pytest.raises(ValueError, match="vector not in Z"):
            q.coordinates(v)
        assert not Z.contains(v)
        with pytest.raises(ValueError, match="B is not contained in Z"):
            QuotientSpace(Z, span(ExactMatrix.from_columns([v], 3, f)))
    assert q.coordinates({0: rat(-1), 1: rat(1), 2: rat(3)}) == {0: rat(1), 1: rat(3)}
    full = Subspace.full(3, f)
    assert QuotientSpace(full, span(Z.basis)).coordinates({1: rat(1)}) == {0: rat(1)}


def test_homology_and_quotient_maps_build_no_solver(elimination_counts):
    """Every quotient the package builds has a kernel basis or the full
    space for Z, so neither ``homology`` with every slot read nor
    ``quotient_maps`` builds an EchelonSolver."""
    rng = random.Random(7)
    E = block_module(QQ, 4, [4, 3, 1, 1])
    P, Pinv = random_unimodular(E.dim, QQ, rng)
    E = NDiffModule(4, P @ E.d @ Pinv)
    H = homology(E)
    for m, slot in H.slots.items():
        reps = slot.representatives
        for k, col in enumerate(reps.columns()):
            assert slot.quotient.coordinates(col) == {k: QQ.one}
        if m + 1 in H.slots:
            slot.map_to(H[m + 1], lambda z: z)
        if m > 1:
            slot.map_to(H[m - 1], E.d.apply)
    proj, section = quotient_maps(image_basis(E.d))
    assert proj @ section == ExactMatrix.identity(proj.nrows, QQ)
    assert elimination_counts["solvers"] == 0


def test_quotient_rejects_bad_containment():
    Z = Subspace(3, from_int_rows([[1], [0], [0]], QQ))
    B = span(from_int_rows([[0], [1], [0]], QQ))
    with pytest.raises(ValueError, match="B is not contained in Z"):
        QuotientSpace(Z, B)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        QuotientSpace(Z, span(from_int_rows([[1], [0]], QQ)))


def test_intersection_and_sum():
    S1 = Subspace(3, from_int_rows([[1, 0], [0, 1], [0, 0]], QQ))
    S2 = Subspace(3, from_int_rows([[0, 0], [1, 0], [0, 1]], QQ))
    I = intersection(S1, S2)
    assert I.dim == 1
    assert S1.contains(I.basis.columns()[0]) and S2.contains(I.basis.columns()[0])
    assert image_basis(S1.basis.hstack(S2.basis)).dim == 3


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3), make_cyclotomic(5)],
                         ids=["Q", "Q(zeta_3)", "Q(zeta_5)"])
def test_intersection_dimension_formula(field):
    """dim(S1 cap S2) = dim S1 + dim S2 - rank [B1 | B2], the basis columns
    are independent, and each lies in both spaces; the pairs share a random
    common part so that the intersection is often nonzero."""
    f, rng = field, random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 7)

        def vectors(k):
            return [{i: random_scalar(f, rng, 2) for i in rng.sample(range(n), rng.randint(1, n))}
                    for _ in range(k)]

        common = vectors(rng.randint(0, 2))
        S1, S2 = (image_basis(ExactMatrix.from_columns(common + vectors(rng.randint(0, 3)), n, f))
                  for _ in range(2))
        I = intersection(S1, S2)
        assert I.dim == S1.dim + S2.dim - rank(S1.basis.hstack(S2.basis))
        assert rank(I.basis) == I.dim
        assert all(S1.contains(v) and S2.contains(v) for v in I.basis.columns())


def test_cyclotomic_elimination():
    f = make_cyclotomic(3)
    z = f.zeta()
    M = ExactMatrix.from_rows([[z, f.one], [f.one, f.pow(z, 2)]], f)
    assert rank(M) == 1  # rows proportional: z * z^2 = 1
    K = kernel_basis(M)
    assert K.dim == 1
    assert (M @ K.basis).is_zero()


def _to_dense(rows, width, field):
    dense = []
    for cols, vals in rows:
        row = [field.zero] * width
        for c, v in zip(cols, vals):
            row[c] = v
        dense.append(row)
    return dense


def _normalized(out):
    """The ``Fraction`` rows of ``row_echelon``'s integer output over Q (its
    contract before integer rows): each echelon row divided by its lead, each
    residual row as rationals.  Asserts the integer contract on the way:
    ``int`` entries, primitive rows, and pivots at the leads."""
    pivots, erows, residual = out
    for cols, vals in erows + residual:
        assert vals and all(type(v) is int and v for v in vals)
        assert math.gcd(*vals) == 1
    assert [cols[0] for cols, _ in erows] == pivots
    return (
        pivots,
        [(rc, [rat(v, rv[0]) for v in rv]) for rc, rv in erows],
        [(rc, [rat(v) for v in rv]) for rc, rv in residual],
    )


def _numerator_rows(rows):
    """Rational sparse rows as the kernel's integer rows over Q: their
    numerators over one common denominator D, as ``ExactMatrix.rows_sparse``
    gives them; returns ``(rows, D)``."""
    nums, D = QQ.split([v for _, vals in rows for v in vals])
    it = iter(nums)
    return [(list(cols), [next(it) for _ in vals]) for cols, vals in rows], D


def _echelon_out(rows, limit, field, reduced=True):
    """``kernel.row_echelon`` of the scalar rows ``rows``; over Q fed their
    numerator rows and read back through ``_normalized``."""
    if field.kind != "rationals":
        return kernel.row_echelon(copy.deepcopy(rows), limit, field, reduced=reduced)
    return _normalized(kernel.row_echelon(
        _numerator_rows(rows)[0], limit, field, reduced=reduced))


def _check_echelon_against_oracle(rows, limit, width, field):
    """kernel.row_echelon(rows, limit) against the dense RREF of the rows
    (over Q on their numerator rows, each echelon row divided by its lead).

    Pivots and the part of each echelon row below ``limit`` are unique.  The
    residual rows span the row space's part with no support below ``limit``,
    and an echelon row's part from ``limit`` on is unique modulo that span.
    """
    pivots, erows, residual = _echelon_out(rows, limit, field)
    unreduced = _echelon_out(rows, limit, field, reduced=False)
    assert unreduced[0] == pivots
    assert all(c < limit for c in pivots)
    for cols, vals in erows + residual:
        assert cols == sorted(set(cols))
        assert not any(field.is_zero(v) for v in vals)
    assert all(cols[0] >= limit for cols, _ in residual)

    o_piv, o_rows = dense_rref(_to_dense(rows, width, field), field)
    rk = len(pivots)
    assert pivots == o_piv[:rk]
    assert all(c >= limit for c in o_piv[rk:])

    r_piv, r_rows = dense_rref(_to_dense(residual, width, field), field)
    assert (r_piv, r_rows) == (o_piv[rk:], o_rows[rk:])

    for row, expected in zip(_to_dense(erows, width, field), o_rows):
        for c, r_row in zip(r_piv, r_rows):
            f = row[c]
            row = [field.sub(a, field.mul(f, b)) for a, b in zip(row, r_row)]
        assert row == expected


@pytest.mark.parametrize("seed", range(6))
def test_row_echelon_against_dense_oracle(seed):
    """RREF entries, pivots and residual rows over Q (on numerator rows over
    denominators up to 3) and Q(zeta_4), plain and augmented by the identity
    as EchelonSolver does."""
    rng = random.Random(300 + seed)
    cases = []
    for field in (QQ, make_cyclotomic(4)):
        nr, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = []
        for _ in range(nr):
            ent = [
                (c, field.from_rat(rng.randint(-3, 3), rng.randint(1, 3)))
                for c in sorted(rng.sample(range(ncols), rng.randint(0, ncols)))
            ]
            ent = [(c, v) for c, v in ent if not field.is_zero(v)]
            rows.append(([c for c, _ in ent], [v for _, v in ent]))
        cases.append((field, rows, ncols))
    # genuinely cyclotomic entries, with one row dependent over Q(zeta_4) only
    field = make_cyclotomic(4)
    nr, ncols = rng.randint(2, 8), rng.randint(1, 8)
    dense = [
        [random_scalar(field, rng, 2) if rng.random() < 0.6 else field.zero
         for _ in range(ncols)]
        for _ in range(nr)
    ]
    z = field.zeta()
    dense.append([field.add(field.mul(z, a), b) for a, b in zip(dense[0], dense[1])])
    rows = []
    for row in dense:
        cols = [c for c, v in enumerate(row) if not field.is_zero(v)]
        rows.append((cols, [row[c] for c in cols]))
    cases.append((field, rows, ncols))

    for field, rows, ncols in cases:
        _check_echelon_against_oracle(rows, ncols, ncols, field)
        augmented = [
            (cols + [ncols + i], vals + [field.one])
            for i, (cols, vals) in enumerate(rows)
        ]
        _check_echelon_against_oracle(augmented, ncols, ncols + len(rows), field)


class _ScalarQ:
    """The scalar operations of QQ under another kind, so that the kernel
    eliminates with them instead of on integer rows."""

    kind = "scalar reference"
    add, mul, neg, inv, is_zero = QQ.add, QQ.mul, QQ.neg, QQ.inv, QQ.is_zero


def _is_canonical_rat(v):
    return (type(v) is type(rat(0)) and v.denominator > 0
            and math.gcd(v.numerator, v.denominator) == 1)


def _q_dense_rows(rng, nrows, ncols):
    """Dense rows over Q with numerators up to 10^6 over denominators 1..12,
    some of them combinations of earlier rows."""
    density = rng.choice((0.2, 0.5, 0.9))
    dense = []
    for _ in range(nrows):
        if len(dense) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(dense, 2)
            s, t = rat(rng.randint(-9, 9), rng.randint(1, 12)), rat(rng.randint(1, 9))
            dense.append([s * x + t * y for x, y in zip(a, b)])
        else:
            dense.append([
                rat(rng.randint(-10**6, 10**6), rng.randint(1, 12))
                if rng.random() < density else rat(0)
                for _ in range(ncols)
            ])
    return dense


@st.composite
def q_echelon_cases(draw):
    """Sparse rows over Q from ``_q_dense_rows``; a pivot limit and a flag."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    nrows = draw(st.integers(0, 12), label="rows")
    ncols = draw(st.integers(0, 12), label="cols")
    limit = draw(st.one_of(st.just(ncols), st.integers(0, ncols)), label="limit")
    reduced = draw(st.booleans(), label="reduced")
    rows = []
    for row in _q_dense_rows(rng, nrows, ncols):
        cols = [c for c, v in enumerate(row) if v]
        rows.append((cols, [row[c] for c in cols]))
    return rows, ncols, limit, reduced


@given(q_echelon_cases())
@settings(max_examples=200, deadline=None)
def test_integer_elimination_over_q(case):
    """The fraction-free elimination over Q, fed numerator rows, returns
    primitive integer rows; each echelon row divided by its lead matches the
    dense Gauss-Jordan oracle, and row for row the kernel's scalar path on
    the rational rows."""
    rows, ncols, limit, reduced = case
    int_rows, _ = _numerator_rows(rows)
    out = kernel.row_echelon(copy.deepcopy(int_rows), limit, QQ, reduced=reduced)
    for cols, vals in out[1] + out[2]:
        assert cols == sorted(set(cols))
    pivots, erows, residual = _normalized(out)
    assert all(c < limit for c in pivots)
    for _, vals in erows + residual:
        assert all(_is_canonical_rat(v) for v in vals)
    assert all(cols[0] >= limit for cols, _ in residual)
    assert all(vals[0] == 1 for _, vals in erows)

    o_piv, o_rows = dense_rref(_to_dense(rows, ncols, QQ), QQ)
    rk = len(pivots)
    assert pivots == o_piv[:rk]
    assert all(c >= limit for c in o_piv[rk:])
    # erows and residual rows span the row space
    assert dense_rref(_to_dense(erows + residual, ncols, QQ), QQ) == (o_piv, o_rows)
    r_piv, r_rows = dense_rref(_to_dense(residual, ncols, QQ), QQ)
    assert (r_piv, r_rows) == (o_piv[rk:], o_rows[rk:])
    if reduced:
        # below ``limit`` the reduced rows are the oracle's, up to the span
        # of the residual rows from ``limit`` on
        for row, expected in zip(_to_dense(erows, ncols, QQ), o_rows):
            for c, r_row in zip(r_piv, r_rows):
                row = [a - row[c] * b for a, b in zip(row, r_row)]
            assert row == expected

    s_piv, s_erows, s_residual = kernel.row_echelon(
        copy.deepcopy(rows), limit, _ScalarQ, reduced=reduced)
    assert (s_piv, s_erows) == (pivots, erows)
    assert dense_rref(_to_dense(s_residual, ncols, QQ), QQ) == (r_piv, r_rows)


@st.composite
def q_solver_cases(draw):
    """A matrix over Q from ``_q_dense_rows`` (so with denominators)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    nrows = draw(st.integers(0, 8), label="rows")
    ncols = draw(st.integers(0, 8), label="cols")
    return ExactMatrix.from_rows(_q_dense_rows(rng, nrows, ncols), QQ, ncols=ncols)


@given(q_solver_cases())
@settings(max_examples=150, deadline=None)
def test_solver_p_matches_normalized_fraction_rows(M):
    """EchelonSolver builds P over Q from the integer rows D_M [M_i | e_i],
    over the lcm of their leads; joined, it is the P of the normalized
    rational rows of [M | I] that the kernel's scalar path gives."""
    solver = EchelonSolver(M)
    split = M.ncols
    got = {(i, j): QQ.join(n, solver._DP)
           for j, col in solver._P.items() for i, n in zip(col[::2], col[1::2])}
    scalar_rows = []
    for i in range(M.nrows):
        row = sorted((c, v) for (r, c), v in M.entries.items() if r == i)
        scalar_rows.append(
            ([c for c, _ in row] + [split + i], [v for _, v in row] + [QQ.one]))
    pivots, erows, _ = kernel.row_echelon(scalar_rows, split, _ScalarQ)
    expected = {(i, c - split): v for i, (rc, rv) in enumerate(erows)
                for c, v in zip(rc, rv) if c >= split}
    assert solver.pivots == pivots
    assert got == expected


def test_matrix_json_roundtrip():
    f = make_cyclotomic(4)
    M = ExactMatrix.from_rows([[f.zeta(), f.zero], [f.one, f.from_rat(1, 2)]], f)
    obj = M.to_json()
    M2 = ExactMatrix.from_json(obj)
    assert M2 == M
    assert M2.to_json() == obj


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(4)], ids=["Q", "Q(zeta_4)"])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_power_matches_identity_started_product(field, n):
    rng = random.Random(400 + n)
    M = ExactMatrix.from_rows(
        [[random_scalar(field, rng, 2) if rng.random() < 0.4 else field.zero
          for _ in range(n)] for _ in range(n)],
        field, ncols=n,
    )
    acc = ExactMatrix.identity(n, field)
    for k in range(5):
        assert M.power(k) == acc
        acc = acc @ M


def test_shape_mismatches_raise_value_error():
    A, B = ExactMatrix.zeros(2, 3, QQ), ExactMatrix.zeros(3, 3, QQ)
    for op in (
        lambda: A + B, lambda: A @ A, lambda: A.power(2), lambda: B.power(-1),
        lambda: A.hstack(B), lambda: A.vstack(ExactMatrix.zeros(2, 2, QQ)),
    ):
        with pytest.raises(ValueError):
            op()


# -- the numerator path of solve, apply and quotient coordinates --------------

NUMERATOR_FIELDS = [QQ] + [make_cyclotomic(M) for M in (3, 4, 5, 8, 12)]
DENOMINATORS = (1, 2, 3, 4, 6, 7, 9)


def _mixed_scalar(f, rng, zero_ratio=0.3):
    """A scalar with coefficients over mixed small denominators."""
    if rng.random() < zero_ratio:
        return f.zero
    return f.from_coeffs(
        [rat(rng.randint(-4, 4), rng.choice(DENOMINATORS)) for _ in range(f.degree)]
    )


def _mixed_matrix(f, rng, nrows, ncols, zero_ratio=0.4):
    return ExactMatrix.from_rows(
        [[_mixed_scalar(f, rng, zero_ratio) for _ in range(ncols)] for _ in range(nrows)],
        f, ncols=ncols,
    )


def _mixed_vector(f, rng, n, zero_ratio=0.3):
    """A sparse vector; its zero entries are kept as explicit zeros."""
    return {j: _mixed_scalar(f, rng, zero_ratio) for j in range(n) if rng.random() < 0.8}


def _dense(M):
    return [[M[r, c] for c in range(M.ncols)] for r in range(M.nrows)]


def _oracle_apply(M, x):
    f = M.field
    out = {}
    for r, row in enumerate(_dense(M)):
        acc = f.zero
        for c, v in enumerate(row):
            acc = f.add(acc, f.mul(v, x.get(c, f.zero)))
        if not f.is_zero(acc):
            out[r] = acc
    return out


def _oracle_solve(M, b):
    """The solution of M x = b with free variables zero, from the dense RREF
    of [M | b], or None when b is outside the image."""
    f = M.field
    rows = [row + [b.get(r, f.zero)] for r, row in enumerate(_dense(M))]
    if any(not f.is_zero(v) for j, v in b.items() if j >= M.nrows):
        return None
    pivots, rref = dense_rref(rows, f)
    if M.ncols in pivots:
        return None
    return {p: row[-1] for p, row in zip(pivots, rref) if not f.is_zero(row[-1])}


def _oracle_coordinates(Z, B, v):
    """Complement positions and quotient coordinates of v in Z / B by the
    deterministic complement rule, from dense eliminations only."""
    f = Z.field
    B_in_Z = [_oracle_solve(Z.basis, col) for col in B.basis.columns()]
    assert all(c is not None for c in B_in_Z)
    covered = dense_rref([[c.get(i, f.zero) for i in range(Z.dim)] for c in B_in_Z], f)[0]
    comp = [i for i in range(Z.dim) if i not in covered]
    full = ExactMatrix.from_columns(B_in_Z + [{i: f.one} for i in comp], Z.dim, f)
    sol = _oracle_solve(full, _oracle_solve(Z.basis, v))
    return comp, {
        k: sol[len(B_in_Z) + k] for k in range(len(comp)) if len(B_in_Z) + k in sol
    }


@st.composite
def solve_cases(draw):
    f = draw(st.sampled_from(NUMERATOR_FIELDS), label="field")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    nrows = draw(st.integers(0, 6), label="rows")
    ncols = draw(st.integers(0, 6), label="cols")
    M = _mixed_matrix(f, rng, nrows, ncols, rng.choice((0.2, 0.5, 0.8)))
    kind = draw(st.sampled_from(("image", "random", "zero")), label="rhs")
    if kind == "image":
        b = M.apply(_mixed_vector(f, rng, ncols))
    elif kind == "random":
        b = _mixed_vector(f, rng, nrows)
    else:
        b = {j: f.zero for j in range(nrows) if rng.random() < 0.5}
    return f, M, b


@given(solve_cases())
@settings(max_examples=250, deadline=None)
def test_numerator_solve_and_apply_match_dense_oracle(case):
    f, M, b = case
    x = {j: v for j, v in b.items() if j < M.ncols}  # b doubles as an input
    assert M.apply(x) == _oracle_apply(M, x)
    solver = EchelonSolver(M)
    expected = _oracle_solve(M, b)
    got = solver.solve(b)
    assert got == expected
    if got is not None:
        assert list(got) == sorted(got)
        assert M.apply(got) == {j: v for j, v in b.items() if not f.is_zero(v)}
    else:
        assert EchelonSolver(M).solve(b) is None


@st.composite
def quotient_cases(draw):
    f = draw(st.sampled_from(NUMERATOR_FIELDS), label="field")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(0, 6), label="ambient")
    Z = image_basis(_mixed_matrix(f, rng, n, draw(st.integers(0, 5), label="zcols")))
    C = _mixed_matrix(f, rng, Z.dim, draw(st.integers(0, 4), label="bcols"))
    B = image_basis(Z.basis @ C)
    v = Z.basis.apply(_mixed_vector(f, rng, Z.dim))
    return Z, B, v


@given(quotient_cases())
@settings(max_examples=150, deadline=None)
def test_numerator_quotient_coordinates_match_dense_oracle(case):
    Z, B, v = case
    q = QuotientSpace(Z, span(B.basis))
    comp, coordinates = _oracle_coordinates(Z, B, v)
    assert q.complement_positions == comp
    assert q.coordinates(v) == coordinates
    for col in B.basis.columns():
        assert q.coordinates(col) == {}
    for k, col in enumerate(q.representatives().columns()):
        assert q.coordinates(col) == {k: Z.field.one}


@st.composite
def unit_row_quotient_cases(draw):
    """Z / B as the package builds them: Z a kernel basis or the full space,
    B the image of some vectors of Z, and vectors of Z to read."""
    f = draw(st.sampled_from(NUMERATOR_FIELDS), label="field")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(0, 6), label="ambient")
    if draw(st.booleans(), label="full"):
        Z = Subspace.full(n, f)
    else:
        Z = kernel_basis(_mixed_matrix(f, rng, draw(st.integers(0, 4), label="rows"), n))
    C = _mixed_matrix(f, rng, Z.dim, draw(st.integers(0, 4), label="bcols"))
    B = image_basis(Z.basis @ C)
    vs = [Z.basis.apply(_mixed_vector(f, rng, Z.dim)) for _ in range(3)]
    return Z, B, vs


@given(unit_row_quotient_cases())
@settings(max_examples=200, deadline=None)
def test_unit_row_quotient_matches_reversed_elimination_oracle(case):
    """``QuotientSpace`` on Z's unit rows against ``OracleQuotient``, one
    elimination of [B | Z reversed]: the complement, the representatives,
    the class of every vector read (keys ascending) and ``quotient_maps``.
    A unit vector at a unit row whose Z column leaves the unit rows is
    outside Z, so both refuse it, as a vector and as B."""
    Z, B, vs = case
    f, n = Z.field, Z.ambient_dim
    q, oracle = QuotientSpace(Z, span(B.basis)), OracleQuotient(Z, B)
    assert q.complement_positions == oracle.complement_positions
    assert q.dim == oracle.dim
    assert q.representatives() == oracle.representatives()
    for v in vs + B.basis.columns() + q.representatives().columns():
        got = q.coordinates(v)
        assert got == oracle.coordinates(v) and list(got) == sorted(got)
    assert quotient_maps(B) == oracle_quotient_maps(B)
    for r, col in zip(Z.positions, Z.basis.columns()):
        if col == {r: f.one}:
            continue
        v = {r: f.one}
        for quotient in (q, oracle):
            with pytest.raises(ValueError, match="vector not in Z"):
                quotient.coordinates(v)
        outside = ExactMatrix.from_columns([v], n, f)
        with pytest.raises(ValueError, match="B is not contained in Z"):
            QuotientSpace(Z, span(outside))
        with pytest.raises(ValueError, match="B is not contained in Z"):
            OracleQuotient(Z, Subspace(n, outside))


@st.composite
def echelon_cases(draw):
    f = draw(st.sampled_from(NUMERATOR_FIELDS), label="field")
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    nrows = draw(st.integers(0, 6), label="rows")
    ncols = draw(st.integers(0, 7), label="cols")
    M = _mixed_matrix(f, rng, nrows, ncols, rng.choice((0.2, 0.5, 0.8)))
    kind = draw(st.sampled_from(("image", "random", "column")), label="v")
    if kind == "image":
        v = M.apply(_mixed_vector(f, rng, ncols))
    elif kind == "random" or not ncols:
        v = _mixed_vector(f, rng, nrows)
    else:
        v = M.columns()[rng.randrange(ncols)]
    return f, M, v


def _as_row(v, n, f):
    """The sparse vector v of length n in the kernel's row format (over Q an
    integer row), as ``image_basis`` feeds ``Echelon.absorb``."""
    return ExactMatrix.from_columns([v], n, f).transpose().rows_sparse()[0]


@given(echelon_cases())
@settings(max_examples=250, deadline=None)
def test_image_basis_echelon_matches_dense_oracle(case):
    """``image_basis`` keeps the pivot columns of the dense Gauss-Jordan
    oracle, and extending a copy of the echelon of the same absorb pass
    (``span``, which is link 1 of ``power_images``) by v keeps v exactly
    when v raises the oracle's rank; the copy leaves the echelon as it
    was."""
    f, M, v = case
    pivots, _ = dense_rref(_dense(M), f)
    S = image_basis(M)
    assert S.basis == M.take_columns(pivots)
    kept = span(M)
    assert kept.leads == power_images(M, 1)[0].leads
    before = copy.deepcopy(kept.leads)
    E = Echelon(kept.ops, kept.limit, kept.leads)
    Mv = M.hstack(ExactMatrix.from_columns([v], M.nrows, f))
    grows = dense_rank_oracle(_dense(Mv), f) > len(pivots)
    assert (E.absorb(*_as_row(v, M.nrows, f)) is None) == grows
    assert len(E.leads) == len(pivots) + grows
    assert kept.leads == before


def test_echelon_absorbs_left_to_right():
    f = QQ
    E = Echelon(f, 3)
    # integer rows, any nonzero multiple of the vector: the second is the
    # first over 2; the fourth reduces at lead 0, then at lead 1, to zero
    rows = [([0, 1], [2, 4]), ([0, 1], [1, 2]), ([1, 2], [1, 1]),
            ([0, 2], [1, -2]), ([], [])]
    assert [E.absorb(*r) for r in rows] == [None, ([], []), None, ([], []), ([], [])]
    assert E.leads == {0: ([0, 1], [1, 2]), 1: ([1, 2], [1, 1])}
    F = Echelon(E.ops, E.limit, E.leads)
    assert F.absorb([2], [1]) is None and E.absorb([0, 1], [7, 14]) == ([], [])
    assert sorted(E.leads) == [0, 1] and sorted(F.leads) == [0, 1, 2]
    # a lead at or past ``limit`` is returned, primitive, and stores nothing
    G = Echelon(f, 2)
    assert G.absorb([0, 2], [3, 6]) is None
    assert G.absorb([0, 2, 3], [2, 4, 6]) == ([3], [1])
    assert list(G.leads) == [0]


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Q(zeta_3)"])
def test_sparser_row_takes_the_lead(field):
    """A sparser row arriving later takes a stored lead, and the row it
    displaces is reduced to a new lead: the echelon holds the sparser row,
    while the columns kept, the pivots and the normalized RREF rows are
    those of first-come elimination (the dense oracle)."""
    f = field
    s = f.from_rat
    # column 1 is sparser than column 0 at lead 0; column 2 lies in their span
    cols = [{0: s(2), 1: s(1), 2: s(1)}, {0: s(3)}, {0: s(1), 1: s(1, 2), 2: s(1, 2)},
            {0: s(1), 3: s(1)}]
    M = ExactMatrix.from_columns(cols, 4, f)
    S = image_basis(M)
    pivots, rref = dense_rref(_dense(M), f)
    assert pivots == [0, 1, 3]
    assert S.basis == M.take_columns(pivots)
    leads = span(M).leads
    assert leads == power_images(M, 1)[0].leads
    assert sorted(leads) == [0, 1, 3] and leads[0][0] == [0]
    # the displaced first column, reduced by the second, keeps lead 1
    assert leads[1][0] == [1, 2]
    # the same pass as row_echelon on M's rows gives the oracle's RREF
    got_piv, erows, residual = kernel.row_echelon(M.rows_sparse(), M.ncols, f)
    assert got_piv == pivots and residual == []
    if f.kind == "rationals":
        erows = [(rc, [rat(v, rv[0]) for v in rv]) for rc, rv in erows]
    assert _to_dense(erows, M.ncols, f) == rref


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(8)], ids=["Q", "Q(zeta_8)"])
def test_empty_shapes(field):
    f = field
    for nrows, ncols in ((0, 0), (0, 3), (3, 0)):
        M = ExactMatrix.zeros(nrows, ncols, f)
        solver = EchelonSolver(M)
        assert M.apply({j: f.one for j in range(ncols)}) == {}
        assert solver.solve({}) == {}
        assert solver.solve({j: f.zero for j in range(nrows)}) == {}
        if nrows:
            assert solver.solve({0: f.one}) is None
    Z = Subspace(3, ExactMatrix.zeros(3, 0, f), positions=())
    assert QuotientSpace(Z, span(Z.basis)).coordinates({}) == {}
    full = Subspace.full(3, f)
    v = {1: f.from_rat(2, 3)}
    assert QuotientSpace(full, span(Z.basis)).coordinates(v) == v


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Q(zeta_3)"])
def test_subspace_helpers_match_oracles(field):
    f = field
    rng = random.Random(f"subspace-helpers:{f!r}")
    n = 7
    # strictly upper triangular up to a relabelling of the coordinates, so
    # M^n = 0 and every orbit of length n spans an M-stable subspace
    perm = rng.sample(range(n), n)
    M = ExactMatrix(n, n, f, {
        (perm[r], perm[c]): v
        for (r, c), v in _mixed_matrix(f, rng, n, n).entries.items() if r < c
    })
    low = [{perm[i]: _mixed_scalar(f, rng, 0) for i in range(4)} for _ in range(2)]
    seeds = low + [{}]
    S = orbit_span(M, seeds, n)
    orbit = [M.power(k).apply(v) for v in seeds for k in range(n)]
    assert 0 < S.dim == rank(ExactMatrix.from_columns(orbit, n, f)) < n
    assert all(S.contains(M.apply(col)) for col in S.basis.columns())

    proj, section = quotient_maps(S)
    q = QuotientSpace(Subspace.full(n, f), span(S.basis))
    assert section.columns() == [{i: f.one} for i in q.complement_positions]
    assert proj @ section == ExactMatrix.identity(n - S.dim, f)
    assert (proj @ S.basis).is_zero()

    oracle = [_oracle_solve(S.basis, _oracle_apply(M, col)) for col in S.basis.columns()]
    assert restrict(M, S, S) == ExactMatrix.from_columns(oracle, S.dim, f)
    V = image_basis(ExactMatrix.from_columns(low[:1], n, f))
    assert _oracle_solve(V.basis, M.apply(low[0])) is None
    assert restrict(M, V, V) is None


# sha256 of the solve, apply and quotient-coordinate outputs of
# ``_golden_outputs``, recorded when every entry was still read as a scalar.
GOLDEN_NUMERATOR_PATH = {
    "Field(Q)": "9177244721968580b2f433ec3f79857dec5e6b234518b433bc7dd342fd95b9e2",
    "Field(Q(zeta_3))": "ee71c85cbec86ca6de2fffb90da0a46224b0d0d21e250c9f580c64d2788c1bda",
    "Field(Q(zeta_4))": "2dd4d82a1f7ca6cb8aefcdad6fa04172dce449d06099dfd8b695134aee5b9eba",
    "Field(Q(zeta_5))": "630bfb1ad432c1f4b1e1cbd012af748d3f1180f0f235511351217636e27f02b6",
    "Field(Q(zeta_8))": "79840d08ae72cbbfdb08e9a262fcd1641cd4b6aa87621a727ea07cfcd2de44bf",
    "Field(Q(zeta_12))": "1b7b39b9e82415e69af4b58b11874227fc27841e10a91dac9e94a2b42a350221",
}


def _to_json(f, vec):
    return None if vec is None else [[j, f.to_str(v)] for j, v in sorted(vec.items())]


def _golden_outputs(f, seed):
    rng = random.Random(f"golden:{f!r}:{seed}")
    M = _mixed_matrix(f, rng, 7, 6)
    M = M.hstack(M.take_columns([0, 2]).scale(f.from_rat(5, 7)))
    solver = EchelonSolver(M)
    out = {"apply": [], "solve": [], "coordinates": []}
    for _ in range(4):
        x = _mixed_vector(f, rng, M.ncols)
        out["apply"].append(_to_json(f, M.apply(x)))
        out["solve"].append(_to_json(f, solver.solve(M.apply(x))))
        out["solve"].append(_to_json(f, solver.solve(_mixed_vector(f, rng, M.nrows))))
    Z = image_basis(M)
    B = span(M.take_columns([1, 6]))
    q = QuotientSpace(Z, B)
    for _ in range(4):
        v = M.apply(_mixed_vector(f, rng, M.ncols))
        out["coordinates"].append(_to_json(f, q.coordinates(v)))
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("field", NUMERATOR_FIELDS, ids=repr)
def test_golden_numerator_path(field):
    assert _golden_outputs(field, 0) == GOLDEN_NUMERATOR_PATH[repr(field)]


# -- tensor and block layouts ---------------------------------------------------


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(6)], ids=["Q", "Q(zeta_6)"])
def test_kron_matches_dense_oracle(field):
    f = field
    rng = random.Random(f"kron:{f!r}")
    shapes = [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3), (3, 2)]
    pairs = [
        (_mixed_matrix(f, rng, ra, ca), _mixed_matrix(f, rng, rb, cb))
        for ra, ca in shapes for rb, cb in shapes
    ]
    # factors holding ones, where kron skips the multiplication
    with_ones = ExactMatrix.from_rows(
        [[_mixed_scalar(f, rng, 0), f.one, f.zero],
         [f.one, _mixed_scalar(f, rng, 0), f.one]], f)
    ones = [ExactMatrix.identity(2, f), with_ones, _mixed_matrix(f, rng, 3, 2)]
    pairs += list(itertools.product(ones, repeat=2))
    for A, B in pairs:
        K = kron(A, B)
        assert (K.nrows, K.ncols) == (A.nrows * B.nrows, A.ncols * B.ncols)
        # row (i, k) of A ox B is A[i, j] B[k, l] over (j, l)
        assert _dense(K) == [
            [f.mul(a, b) for a in arow for b in brow]
            for arow in _dense(A) for brow in _dense(B)
        ]
        assert not any(f.is_zero(v) for v in K.entries.values())


@pytest.mark.parametrize("m, n", [(0, 2), (1, 1), (1, 3), (2, 3), (3, 2), (3, 3)])
def test_commutation_matches_dense_oracle(m, n):
    f = make_cyclotomic(3)
    P = commutation(m, n, f)
    # dense oracle: the unit vector e_i ox e_j goes to e_j ox e_i
    dense = [[f.zero] * (m * n) for _ in range(m * n)]
    for i, j in itertools.product(range(m), range(n)):
        dense[j * m + i][i * n + j] = f.one
    assert _dense(P) == dense
    # it swaps the factors of every Kronecker product x ox y
    rng = random.Random(f"commutation:{m}:{n}")
    x, y = _mixed_matrix(f, rng, m, 2), _mixed_matrix(f, rng, n, 3)
    assert P @ kron(x, y) == kron(y, x) @ commutation(2, 3, f)
    assert commutation(n, m, f) @ P == ExactMatrix.identity(m * n, f)


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(6)], ids=["Q", "Q(zeta_6)"])
def test_place_blocks_matches_dense_oracle(field):
    f = field
    rng = random.Random(f"place-blocks:{f!r}")
    nrows, ncols = 6, 7
    for _ in range(20):
        pieces = []
        for _ in range(4):
            r0, c0 = rng.randint(0, nrows), rng.randint(0, ncols)
            shape = rng.randint(0, nrows - r0), rng.randint(0, ncols - c0)
            M = _mixed_matrix(f, rng, *shape)
            pieces.append((r0, c0, M))
        # a piece cancelled by its negative elsewhere in the list
        r0, c0, M = pieces[1]
        pieces.append((r0, c0, M.scale(f.neg(f.one))))
        dense = [[f.zero] * ncols for _ in range(nrows)]
        for r0, c0, M in pieces:
            for r, row in enumerate(_dense(M)):
                for c, v in enumerate(row):
                    dense[r0 + r][c0 + c] = f.add(dense[r0 + r][c0 + c], v)
        P = place_blocks(nrows, ncols, f, pieces)
        assert (P.nrows, P.ncols) == (nrows, ncols)
        assert _dense(P) == dense
        assert not any(f.is_zero(v) for v in P.entries.values())
    M = _mixed_matrix(f, rng, 3, 3, zero_ratio=0)
    cancelled = place_blocks(4, 4, f, [(1, 0, M), (1, 0, M.scale(f.neg(f.one)))])
    assert cancelled.entries == {}
    assert place_blocks(0, 2, f, [(0, 2, ExactMatrix.zeros(0, 0, f))]).is_zero()
    for r0, c0 in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="leaves"):
            place_blocks(3, 3, f, [(r0, c0, ExactMatrix.identity(2, f))])


def test_mixed_radix_indices_follow_kron_order():
    for radix, length in ((1, 3), (2, 0), (3, 3)):
        tuples = list(itertools.product(range(radix), repeat=length))
        assert [tuple_index(t, radix) for t in tuples] == list(range(len(tuples)))
        assert [index_tuple(i, radix, length) for i in range(len(tuples))] == tuples
        for t in tuples:
            units = [ExactMatrix(radix, 1, QQ, {(x, 0): QQ.one}) for x in t]
            e = reduce(kron, units, ExactMatrix.identity(1, QQ))
            assert e.entries == {(tuple_index(t, radix), 0): QQ.one}
