import hashlib
import itertools
import json
from functools import reduce

import pytest

from ncomplex.fields import QQ, make_cyclotomic
from ncomplex.graded import check_graded_q_leibniz, graded_homology
from ncomplex.linalg import (
    ExactMatrix,
    Subspace,
    image_basis,
    index_tuple,
    kron,
    rank,
    restrict,
)
from ncomplex import cosimplicial
from ncomplex.cosimplicial import (
    AlgebraData,
    BimoduleData,
    _check_multiplicative_axioms,
    _tensor_square,
    chevalley_eilenberg,
    d0,
    d1,
    dual_numbers,
    group_algebra_cyclic,
    hochschild,
    omega_q,
    ordinary_cohomology_dims,
    prop7_verify,
    q_tensor_leibniz_witness,
    simplicial_differential,
    tensor_algebra,
    theorem2_verify,
    truncated_polynomials,
    universal_envelope,
)
import helpers
from helpers import (
    abelian_lie,
    constant_cosimplicial,
    diagonal_algebra,
    field_algebra,
    from_int_rows,
    matrix_algebra,
    nonabelian_lie2,
    oracle_normalized_subcomplex,
    oracle_omega_q_closure,
    oracle_restrict,
    sl2,
    tuple_index,
)


def test_algebra_validation():
    f = QQ
    # non-associative: (aa)a = 0 but a(aa) = 1, with basis (1, a, b), aa = b
    bad = [
        [{0: f.one}, {1: f.one}, {2: f.one}],
        [{1: f.one}, {2: f.one}, {0: f.one}],
        [{2: f.one}, {}, {}],
    ]
    with pytest.raises(ValueError, match="associativity"):
        AlgebraData(f, bad, unit={0: f.one})
    # dual numbers and M_2 pass
    dual_numbers(f)
    matrix_algebra(f, 2)
    # Lie: Jacobi and antisymmetry
    sl2(f)
    with pytest.raises(ValueError):
        AlgebraData(f, [[{}, {0: f.one}], [{0: f.one}, {}]], lie=True)


def test_algebra_json_roundtrip():
    A = dual_numbers(make_cyclotomic(3))
    obj = A.to_json()
    A2 = AlgebraData.from_json(obj)
    assert A2.structure == A.structure
    assert A2.unit == A.unit and A2.counit == A.counit
    assert A2.to_json() == obj


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_algebra_lie_flag_must_be_a_bool(flag):
    obj = {**dual_numbers(QQ).to_json(), "lie": flag}
    with pytest.raises(ValueError, match=r"^algebra lie must be true or false"):
        AlgebraData.from_json(obj)


def test_builders_need_an_associative_algebra_with_a_unit():
    """A Lie algebra is validated by antisymmetry and Jacobi only, so the
    bimodule and cosimplicial builders refuse it, with a unit or without."""
    f = QQ
    lie = nonabelian_lie2(f)
    with_unit = AlgebraData(f, lie.structure, unit={0: f.one}, lie=True)
    for g in (lie, with_unit):
        with pytest.raises(ValueError, match="associative with a unit"):
            BimoduleData.regular(g)
        with pytest.raises(ValueError, match="associative with a unit"):
            tensor_algebra(g, 2)
    A, B = dual_numbers(f), dual_numbers(f)
    with pytest.raises(ValueError, match="bimodule over A"):
        hochschild(A, BimoduleData.regular(B), 2)


def test_bimodule_rejects_an_action_on_the_wrong_side():
    # f_0 of hochschild acts by M.left, f_(n+1) by M.right; over M_2(k) the
    # regular action of one side is no action of the other
    A = matrix_algebra(QQ, 2)
    R = BimoduleData.regular(A)
    with pytest.raises(ValueError, match=r"^left action fails at \(0,1\)$"):
        BimoduleData(A, 4, R.right, R.right)
    with pytest.raises(ValueError, match=r"^right action fails at \(0,1\)$"):
        BimoduleData(A, 4, R.left, R.left)


def test_action_lists_of_the_wrong_length_or_shape_are_refused():
    # a list shorter or longer than dim A, or a matrix of the wrong size,
    # is refused by the name of the list with its expected length or shape
    f = QQ
    A = group_algebra_cyclic(f, 2)
    R = BimoduleData.regular(A)
    big = ExactMatrix.identity(3, f)
    with pytest.raises(ValueError, match=r"^left action must hold 2 matrices, "
                       r"one per basis element, got 1$"):
        BimoduleData(A, 2, R.left[:1], R.right)
    with pytest.raises(ValueError, match=r"^right action must hold 2 .* got 3$"):
        BimoduleData(A, 2, R.left, R.right + [R.right[0]])
    with pytest.raises(ValueError, match=r"^left action\[1\] must be 2x2, got 3x3$"):
        BimoduleData(A, 2, [R.left[0], big], R.right)
    g, zero = abelian_lie(f, 2), ExactMatrix.zeros(1, 1, f)
    with pytest.raises(ValueError, match=r"^rep_mats must hold 2 .* got 1$"):
        chevalley_eilenberg(g, [zero], 1, 2)
    with pytest.raises(ValueError, match=r"^rep_mats must hold 2 .* got 3$"):
        chevalley_eilenberg(g, [zero] * 3, 1, 2)
    with pytest.raises(ValueError, match=r"^rep_mats\[1\] must be 1x1, got 3x3$"):
        chevalley_eilenberg(g, [zero, big], 1, 2)


def test_constant_cosimplicial_cohomology():
    E = constant_cosimplicial(QQ, 5)
    C = simplicial_differential(E)
    H = graded_homology(C, ms=[1])
    assert H[(0, 1)].dim_H == 1
    for n in range(1, 5):
        assert H[(n, 1)].dim_H == 0


def test_relation_failure_reported(cosimplicial_relations):
    # tamper with a coface: (F) must fail with the offending indices
    E = constant_cosimplicial(QQ, 3)
    cosimplicial_relations(E)
    E.cofaces[1][1] = from_int_rows([[2]], QQ)
    with pytest.raises(ValueError, match=r"\(F\) fails"):
        cosimplicial_relations(E)


_ORACLE_ALGEBRAS = {
    "field": field_algebra,
    "dual": dual_numbers,
    "trunc3": lambda f: truncated_polynomials(f, 3),
    "trunc4": lambda f: truncated_polynomials(f, 4),
    "Z2": lambda f: group_algebra_cyclic(f, 2),
    "Z3": lambda f: group_algebra_cyclic(f, 3),
    "M2": lambda f: matrix_algebra(f, 2),
}


@pytest.mark.parametrize("M", [1, 3], ids=["Q", "Q(zeta_3)"])
@pytest.mark.parametrize("builder, algebra", [
    (builder, algebra) for builder in ("regular", "left-action", "tensor")
    for algebra in sorted(_ORACLE_ALGEBRAS)
    # M_2(k) has no counit for the trivial right action
    if (builder, algebra) != ("left-action", "M2")
])
def test_builders_satisfy_the_cosimplicial_relations(
        cosimplicial_relations, builder, algebra, M):
    """The certificate of ``hochschild`` and ``tensor_algebra`` (the algebra
    and bimodule laws) against the full relation check on levels 0-4."""
    f = QQ if M == 1 else make_cyclotomic(M)
    A = _ORACLE_ALGEBRAS[algebra](f)
    if builder == "tensor":
        E = tensor_algebra(A, 4)
    else:
        bimodule = BimoduleData.regular(A)
        if builder == "left-action":
            bimodule = BimoduleData.from_left_action(A, A.dim, bimodule.left)
        E = hochschild(A, bimodule, 4)
    cosimplicial_relations(E)


def test_hochschild_trivial_algebra():
    A = field_algebra(QQ)
    E = hochschild(A, BimoduleData.regular(A), 4)
    assert E.dims == [1, 1, 1, 1, 1]


def test_hochschild_dual_numbers_cohomology():
    # frozen from the rank computation: H^0 = center = A (dim 2), H^n = 1
    A = dual_numbers(QQ)
    E = hochschild(A, BimoduleData.regular(A), 5)
    dims = ordinary_cohomology_dims(E, 4)
    assert dims == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_hochschild_matrix_algebra_separable():
    A = matrix_algebra(QQ, 2)
    E = hochschild(A, BimoduleData.regular(A), 4)
    dims = ordinary_cohomology_dims(E, 3)
    assert dims == {0: 1, 1: 0, 2: 0, 3: 0}


def test_d0_d1_reduce_to_simplicial_at_q_minus_one():
    f = make_cyclotomic(6)
    qm1 = f.pow(f.zeta(), 3)
    A = dual_numbers(f)
    E = hochschild(A, BimoduleData.regular(A), 3)
    S = simplicial_differential(E)
    C0 = d0(E, qm1, 2)
    C1 = d1(E, qm1, 2)
    for n in range(3):
        # the alternating coface sum, formed here as the oracle
        alt = ExactMatrix.zeros(E.dims[n + 1], E.dims[n], f)
        for i, fi in enumerate(E.cofaces[n]):
            alt = alt + fi.scale(f.from_rat((-1) ** i))
        assert S.maps[n] == alt
        assert C0.maps[n] == alt
        assert C1.maps[n] == alt


def test_d0_d1_nilpotent_constant_module():
    f = make_cyclotomic(3)
    E = constant_cosimplicial(f, 6)
    for make in (d0, d1):
        C = make(E, f.zeta(), 3)
        C.validate()  # checks d^3 = 0 inside the window


def test_d1_nilpotent_hochschild():
    f = make_cyclotomic(3)
    A = dual_numbers(f)
    E = hochschild(A, BimoduleData.regular(A), 6)
    C = d1(E, f.zeta(), 3)
    C.validate()


def test_d0_rejects_bad_q():
    E = constant_cosimplicial(QQ, 3)
    with pytest.raises(ValueError):
        d0(E, QQ.one, 3)


def test_normalized_subcomplex_constant():
    E = constant_cosimplicial(QQ, 4)
    sub, bases = oracle_normalized_subcomplex(E)
    assert sub.dims[0] == 1
    for n in range(1, 4):
        assert sub.dims[n] == 0


def test_normalized_hochschild_kills_unit_arguments():
    # normalized cochains vanish when any argument is the unit
    A = dual_numbers(QQ)
    E = hochschild(A, BimoduleData.regular(A), 4)
    sub, bases = oracle_normalized_subcomplex(E)
    f = QQ
    for n in range(1, 4):
        for col in bases[n].basis.columns():
            for i in range(n):
                assert not E.codegens[n - 1][i].apply(col)


def test_chevalley_eilenberg_examples():
    f = QQ
    # abelian, trivial coefficients: d = 0 and H^n = binom(dim, n)
    g = abelian_lie(f, 3)
    C = chevalley_eilenberg(g, [ExactMatrix.zeros(1, 1, f)] * 3, 1, 3)
    assert all(M.is_zero() for M in C.maps.values())
    # 2-dim nonabelian, trivial coefficients: 1, 1, 0
    g = nonabelian_lie2(f)
    C = chevalley_eilenberg(g, [ExactMatrix.zeros(1, 1, f)] * 2, 1, 2)
    H = graded_homology(C, ms=[1])
    assert [H[(n, 1)].dim_H for n in range(3)] == [1, 1, 0]
    # sl2, trivial coefficients: 1, 0, 0, 1 (Whitehead)
    g = sl2(f)
    C = chevalley_eilenberg(g, [ExactMatrix.zeros(1, 1, f)] * 3, 1, 3)
    H = graded_homology(C, ms=[1])
    assert [H[(n, 1)].dim_H for n in range(4)] == [1, 0, 0, 1]


def test_chevalley_eilenberg_rejects_bad_representation():
    f = QQ
    g = sl2(f)
    bad = [ExactMatrix.identity(2, f)] * 3
    with pytest.raises(ValueError):
        chevalley_eilenberg(g, bad, 2, 2)


def test_tensor_algebra_axioms_and_envelope_dims():
    A = dual_numbers(QQ)
    T = tensor_algebra(A, 4)  # checks (MF1), (MF2), (MS)
    assert T.dims == [2, 4, 8, 16, 32]
    omega, _ = universal_envelope(A, 4)
    # dim Omega^n = dim A (dim A - 1)^n
    assert omega.dims == {n: 2 for n in range(5)}


def test_universal_envelope_trivial_algebra():
    A = field_algebra(QQ)
    omega, _ = universal_envelope(A, 3)
    assert omega.dims == {0: 1, 1: 0, 2: 0, 3: 0}


def test_envelope_degree_zero_differential():
    # Prop 5 sanity: on degree 0 the restricted differential is the universal
    # one, i.e. d(x) = 1 ox x - x ox 1 inside T(A)
    A = dual_numbers(QQ)
    T = tensor_algebra(A, 3)
    omega, bases = universal_envelope(A, 3)
    S = simplicial_differential(T)
    f = QQ
    for i in range(2):
        v = {i: f.one}
        expect = S.map(0).apply(v)
        got_sub = omega.map(0).apply(bases[0].coordinates(v) or {i: f.one})
        # expand back to T coordinates
        assert bases[1].basis.apply(got_sub) == expect


def test_envelope_graded_leibniz():
    A = dual_numbers(QQ)
    omega, _ = universal_envelope(A, 3)
    assert check_graded_q_leibniz(omega, QQ.neg(QQ.one))


def test_lemma7_qleibniz_on_tensor_algebra():
    f = make_cyclotomic(3)
    A = dual_numbers(f)
    T = tensor_algebra(A, 4)
    C = d1(T, f.zeta(), 3)
    C.product = T.product
    assert check_graded_q_leibniz(C, f.zeta())
    assert not check_graded_q_leibniz(C, f.mul(f.zeta(), f.zeta()))


def test_omega_q_matches_envelope_at_n2():
    f = make_cyclotomic(6)
    A = dual_numbers(f)
    qm1 = f.pow(f.zeta(), 3)
    Oq, _ = omega_q(A, qm1, 2, 4)
    omega, _ = universal_envelope(A, 4)
    assert Oq.dims == omega.dims


def test_omega_q_trivial_algebra():
    f = make_cyclotomic(3)
    A = field_algebra(f)
    Oq, _ = omega_q(A, f.zeta(), 3, 3)
    assert Oq.dims == {0: 1, 1: 0, 2: 0, 3: 0}


def test_omega_q_leibniz():
    f = make_cyclotomic(3)
    A = dual_numbers(f)
    Oq, _ = omega_q(A, f.zeta(), 3, 3)
    assert check_graded_q_leibniz(Oq, f.zeta())


def test_theorem2_constant_module():
    f = make_cyclotomic(3)
    E = constant_cosimplicial(f, 6)
    rep = theorem2_verify(E, f.zeta(), 3, 6)
    assert rep.ok
    assert rep.details["ordinary"][0] == 1


def test_theorem2_hochschild_dual_numbers():
    f = make_cyclotomic(3)
    A = dual_numbers(f)
    E = hochschild(A, BimoduleData.regular(A), 6)
    rep = theorem2_verify(E, f.zeta(), 3, 6)
    assert rep.ok
    assert rep.details["mismatches"] == []
    assert rep.details["ordinary"] == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_theorem2_hochschild_m2():
    f = make_cyclotomic(3)
    A = matrix_algebra(f, 2)
    E = hochschild(A, BimoduleData.regular(A), 3)
    rep = theorem2_verify(E, f.zeta(), 3, 3)
    assert rep.ok
    # only degree-0 classes survive
    assert rep.details["ordinary"][0] == 1
    assert all(v == 0 for n, v in rep.details["ordinary"].items() if n >= 1)


def test_theorem2_window_too_small():
    f = make_cyclotomic(3)
    E = constant_cosimplicial(f, 2)
    with pytest.raises(ValueError):
        theorem2_verify(E, f.zeta(), 3, 2)


def test_prop7_trivial_and_dual():
    f = make_cyclotomic(3)
    assert prop7_verify(field_algebra(f), f.zeta(), 3, 3).ok
    assert prop7_verify(dual_numbers(f), f.zeta(), 3, 4).ok


def test_prop7_builds_one_tensor_algebra_and_one_d1(monkeypatch):
    """Omega_q(A) is closed inside the validated T(A) and the d_1 whose
    homology the T side reads: one of each per call."""
    calls = {"tensor_algebra": 0, "d1": 0}
    for name in calls:
        def counted(*args, _real=getattr(cosimplicial, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(cosimplicial, name, counted)
    f = make_cyclotomic(3)
    assert prop7_verify(dual_numbers(f), f.zeta(), 3, 3).ok
    assert calls == {"tensor_algebra": 1, "d1": 1}


def test_q_leibniz_fails_on_tensor_square_at_n3():
    # the negative statement: for two graded q-differential algebras at N=3
    # the tensor differential violates the q-Leibniz rule on a concrete pair
    f = make_cyclotomic(3)
    A = dual_numbers(f)
    Oq, _ = omega_q(A, f.zeta(), 3, 4)
    # recorded from the per-basis-pair search the matrix identity replaced
    assert q_tensor_leibniz_witness(Oq, f.zeta()) == {
        "degrees": (1, 0), "indices": (0, 2)}
    # a q under which the square is no 3-complex is refused, not searched
    with pytest.raises(ValueError, match=r"d\^3 != 0 starting at degree 0"):
        q_tensor_leibniz_witness(Oq, f.from_rat(2))
    # and the classical case q = -1, N = 2 has no such witness
    f6 = make_cyclotomic(6)
    A6 = dual_numbers(f6)
    qm1 = f6.pow(f6.zeta(), 3)
    Oq2, _ = omega_q(A6, qm1, 2, 3)
    assert q_tensor_leibniz_witness(Oq2, qm1) is None


# sha256 of the to_json of every coface and codegeneracy, recorded from the
# hand-indexed assembly that kron and place_blocks replaced
STRUCTURE_MAP_DIGESTS = {
    ("hochschild", "dual_numbers", 3, 4):
        "e5ad1e3c41dd2991a6df597963fa50d08c94461f390117a35693b0a7a2816294",
    ("hochschild", "truncated_polynomials", 6, 3):
        "44b6bdb03df654664b970607072f3f8831570be9c73d811f4b6a03ba4266167b",
    ("tensor_algebra", "dual_numbers", 3, 4):
        "85165d5d8173a939d05b77c1d7cc4d2c94175790fb46b57d91847e5658daa10a",
    ("tensor_algebra", "truncated_polynomials", 6, 3):
        "35fa9a08218ca7cad83bd91206246728b971b7c0f35a4e3c8d87d5f0bd9141cf",
    ("tensor_algebra", "matrix_algebra", 1, 2):
        "af06a4af5f30c1ad2d796adce7c8b9ae8b7fe2422d61415811136cab244835ab",
}


def _digest(mats):
    return hashlib.sha256(
        json.dumps([M.to_json() for M in mats], sort_keys=True).encode()
    ).hexdigest()


def _structure_case(case):
    """The field and the cosimplicial module of a digest case."""
    builder, algebra, M, n_max = case
    f = QQ if M == 1 else make_cyclotomic(M)
    A = {
        "dual_numbers": dual_numbers,
        "truncated_polynomials": lambda f: truncated_polynomials(f, 4),
        "matrix_algebra": lambda f: matrix_algebra(f, 2),
    }[algebra](f)
    if builder == "hochschild":
        return f, hochschild(A, BimoduleData.regular(A), n_max)
    return f, tensor_algebra(A, n_max)


@pytest.mark.parametrize(
    "case", sorted(STRUCTURE_MAP_DIGESTS), ids=lambda c: "-".join(map(str, c))
)
def test_structure_maps_match_hand_indexed_digests(case):
    _, E = _structure_case(case)
    mats = [M for level in E.cofaces + E.codegens for M in level]
    assert _digest(mats) == STRUCTURE_MAP_DIGESTS[case]


# sha256 of the maps of d_0 and d_1 at N = 3, q a primitive cube root of
# unity, on the STRUCTURE_MAP_DIGESTS cases over Q(zeta_3) and Q(zeta_6):
# recorded from the coface sums built term by term, before each map became
# one place_blocks of the q-weighted cofaces
D0_D1_DIGESTS = {
    ("hochschild", "dual_numbers", 3, 4): (
        "47ca7edefb1b88b521c762ceadd3a4ca5fbaf71c7843b00a72c1596123f9d447",
        "7b45e7663989a79dc823d92a8f90b2062eef152872449e813268a153b868ad23"),
    ("hochschild", "truncated_polynomials", 6, 3): (
        "ed9e99993f03e6f37131f5b35fb8e80549fc8c4d01643dbfa99360ce3f3b38e1",
        "477b79b750ff3a1050eebea1d66abd8bc3d155724741b70c44ba69d4a3213ad4"),
    ("tensor_algebra", "dual_numbers", 3, 4): (
        "cf2204b941a5e6bae29eb49a885e51e3bca5fcfc95117364bcbe50364d4b9805",
        "f5289a5b8340659c0277f006ce9f1fd33570e5de48b27af8981f29df364233cb"),
    ("tensor_algebra", "truncated_polynomials", 6, 3): (
        "bccb59d0387ad3db47687b31658b98bfcbeb69c0de863c3699e6c2c31667a33d",
        "a3cf50064f6976245315849219e8f7f7ce9e4912566e78ffef0b3d61d5eabad0"),
}


@pytest.mark.parametrize(
    "case", sorted(D0_D1_DIGESTS), ids=lambda c: "-".join(map(str, c))
)
def test_d0_d1_maps_match_recorded_digests(case):
    f, E = _structure_case(case)
    q = f.zeta() if case[2] == 3 else f.pow(f.zeta(), 2)
    got = tuple(_digest([C.maps[n] for n in sorted(C.maps)])
                for C in (d0(E, q, 3), d1(E, q, 3)))
    assert got == D0_D1_DIGESTS[case]


def test_algebra_law_failures_name_the_first_basis_tuple():
    f = QQ
    dual = dual_numbers(f).structure
    with pytest.raises(ValueError, match=r"^unit fails on basis element 0$"):
        AlgebraData(f, dual, unit={1: f.one})
    with pytest.raises(ValueError, match=r"^counit not multiplicative at \(1,1\)$"):
        AlgebraData(f, dual, unit={0: f.one}, counit={0: f.one, 1: f.one})
    # antisymmetric, [e0, e1] = e1 and [e1, e2] = e2: Jacobi fails on (0, 1, 2)
    bracket = [[{} for _ in range(3)] for _ in range(3)]
    bracket[0][1], bracket[1][0] = {1: f.one}, {1: f.neg(f.one)}
    bracket[1][2], bracket[2][1] = {2: f.one}, {2: f.neg(f.one)}
    with pytest.raises(ValueError, match=r"^Jacobi fails at \(0,1,2\)$"):
        AlgebraData(f, bracket, lie=True)


@pytest.mark.parametrize("maps, n, i, message", [
    ("cofaces", 2, 1, "(MF1) fails at i=1"),
    ("cofaces", 1, 0, "(MF1) fails at i=0"),
    ("cofaces", 2, 0, "(MF1) fails at i=0"),
    ("cofaces", 0, 1, "(MF2) fails"),
    ("codegens", 0, 0, "(MS) fails at i=0"),
    ("codegens", 1, 1, "(MS) fails at i=1"),
])
def test_multiplicative_axiom_failure_names_the_law(maps, n, i, message):
    # recorded from the per-basis-pair checks: where several laws fail on
    # the first failing pair, the first of MF1 (by i), MF2, MS (by i) is named
    f = QQ
    T = tensor_algebra(dual_numbers(f), 4)
    _check_multiplicative_axioms(T, 3)
    level = getattr(T, maps)[n]
    level[i] = level[i].scale(f.from_rat(2))
    with pytest.raises(AssertionError) as exc:
        _check_multiplicative_axioms(T, 3)
    assert str(exc.value) == message


def _vector_tensor_product(A, a_deg, va, b_deg, vb):
    """The per-vector product of T(A) that the matrices P_ab replaced."""
    f, a = A.field, A.dim
    out = {}
    for ia, ca in va.items():
        ta = index_tuple(ia, a, a_deg + 1)
        for ib, cb in vb.items():
            tb = index_tuple(ib, a, b_deg + 1)
            for t, c in A.mul_basis(ta[-1], tb[0]).items():
                k = tuple_index(ta[:-1] + (t,) + tb[1:], a)
                f.accumulate(out, k, f.mul(f.mul(ca, cb), c))
    return out


def _assert_product_columns(C, vector_product, n_max):
    """Column i dim(b) + j of P_ab is the product of the basis pair (i, j)."""
    one, dims = C.field.one, C.dims
    for a in range(n_max + 1):
        for b in range(n_max + 1 - a):
            cols = C.product(a, b).columns()
            assert len(cols) == dims[a] * dims[b]
            for i in range(dims[a]):
                for j in range(dims[b]):
                    want = vector_product(a, {i: one}, b, {j: one})
                    assert cols[i * dims[b] + j] == want, (a, b, i, j)


@pytest.mark.parametrize("make", [
    lambda: dual_numbers(QQ),
    lambda: truncated_polynomials(make_cyclotomic(3), 3),
    lambda: matrix_algebra(QQ, 2),
], ids=["dual-Q", "truncated-Q(zeta_3)", "M2-Q"])
def test_tensor_algebra_product_matches_vector_product(make):
    A = make()
    n_max = 3 if A.dim == 2 else 2
    T = tensor_algebra(A, n_max)
    _assert_product_columns(
        T, lambda a, va, b, vb: _vector_tensor_product(A, a, va, b, vb), n_max)


@pytest.mark.parametrize("envelope", ["omega", "omega_q"])
def test_envelope_product_matches_vector_product(envelope):
    if envelope == "omega":
        A, n_max = dual_numbers(QQ), 4
        C, bases = universal_envelope(A, n_max)
    else:
        f = make_cyclotomic(3)
        A, n_max = truncated_polynomials(f, 3), 3
        C, bases = omega_q(A, f.zeta(), 3, n_max)

    def in_bases(a, va, b, vb):
        big = _vector_tensor_product(
            A, a, bases[a].basis.apply(va), b, bases[b].basis.apply(vb))
        return bases[a + b].coordinates(big)

    _assert_product_columns(C, in_bases, n_max)


def test_tensor_square_product_matches_vector_product():
    f = make_cyclotomic(3)
    q = f.zeta()
    C, _ = omega_q(dual_numbers(f), q, 3, 3)
    T = _tensor_square(C, q)
    # cut at C's top degree, where C's differential is no longer determined
    assert T.dims == {n: sum(C.dims[r] * C.dims[n - r] for r in range(n + 1))
                      for n in range(4)}
    layout = {n: [(r, n - r) for r in range(n + 1)] for n in T.dims}

    def pos(n, r, s, i, j):
        off = sum(C.dims[r2] * C.dims[s2] for r2, s2 in layout[n] if r2 < r)
        return off + i * C.dims[s] + j

    def vector_product(n1, v1, n2, v2):
        """(x ox y)(x' ox y') = q^(deg y deg x') xx' ox yy', pair by pair."""
        out = {}
        for (r1, s1), (r2, s2) in itertools.product(layout[n1], layout[n2]):
            sign = f.pow(q, s1 * r2)
            Pr, Ps = C.product(r1, r2).columns(), C.product(s1, s2).columns()
            for i1, j1, i2, j2 in itertools.product(
                    range(C.dims[r1]), range(C.dims[s1]),
                    range(C.dims[r2]), range(C.dims[s2])):
                c1 = v1.get(pos(n1, r1, s1, i1, j1))
                c2 = v2.get(pos(n2, r2, s2, i2, j2))
                if c1 is None or c2 is None:
                    continue
                coeff = f.mul(f.mul(c1, c2), sign)
                aa = Pr[i1 * C.dims[r2] + i2]
                bb = Ps[j1 * C.dims[s2] + j2]
                for (ii, av), (jj, bv) in itertools.product(aa.items(), bb.items()):
                    row = pos(n1 + n2, r1 + r2, s1 + s2, ii, jj)
                    f.accumulate(out, row, f.mul(coeff, f.mul(av, bv)))
        return out

    for n1 in T.dims:
        for n2 in range(max(T.dims) + 1 - n1):
            cols = T.product(n1, n2).columns()
            for i1 in range(T.dims[n1]):
                for i2 in range(T.dims[n2]):
                    want = vector_product(n1, {i1: f.one}, n2, {i2: f.one})
                    assert cols[i1 * T.dims[n2] + i2] == want, (n1, n2, i1, i2)


# sha256 of the level bases and the differential of Omega_q(A) (Omega(A) for
# the envelope).  The dual-Q(zeta_6) and field entries were recorded from the
# per-vector closure the matrix closure replaced, and the normal-form words
# reproduce them; the other three are the words' bases and maps, which span
# what the closure and the normalized cochains span
# (test_omega_q_words_span_the_closure)
ENVELOPE_DIGESTS = {
    "dual-Q(zeta_3)-N3-7":
        "989ad266429b9d4c3471328ab5d73a7f8302ea714e4a186c0a9da031c564f4a3",
    "dual-Q(zeta_6)-q-1-N2-4":
        "8dcb4c6051c4c2c6cef9e83b88528a8ddf9c4a18f7174ebc174bca57f2c69348",
    "field-Q(zeta_3)-N3-3":
        "956a005ef25c5b0e536714e4b85bf4dbb4036d9c4566c45061e06b21042a5c2a",
    "truncated3-Q(zeta_3)-N3-5":
        "b1f8e3d3c043d6652ebd9b2f8f9a1cdb231c31c1ea61215f22add45fa0a8ac4e",
    "envelope-dual-Q-4":
        "f3aa31fc23ad4fdd365fa3fbca338ba29372a69022cbbfd5d22bbee4980bdf35",
}


@pytest.mark.parametrize("case", sorted(ENVELOPE_DIGESTS))
def test_envelope_bases_and_maps_match_vector_closure(case):
    f3, f6 = make_cyclotomic(3), make_cyclotomic(6)
    C, bases = {
        "dual-Q(zeta_3)-N3-7":
            lambda: omega_q(dual_numbers(f3), f3.zeta(), 3, 7),
        "dual-Q(zeta_6)-q-1-N2-4":
            lambda: omega_q(dual_numbers(f6), f6.pow(f6.zeta(), 3), 2, 4),
        "field-Q(zeta_3)-N3-3":
            lambda: omega_q(field_algebra(f3), f3.zeta(), 3, 3),
        "truncated3-Q(zeta_3)-N3-5":
            lambda: omega_q(truncated_polynomials(f3, 3), f3.zeta(), 3, 5),
        "envelope-dual-Q-4": lambda: universal_envelope(dual_numbers(QQ), 4),
    }[case]()
    obj = [B.basis.to_json() for B in bases]
    obj += [C.maps[n].to_json() for n in sorted(C.maps)]
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == ENVELOPE_DIGESTS[case]


# sha256 of the maps of the Chevalley-Eilenberg complex, recorded from the
# hand-indexed assembly that place_blocks replaced
CE_DIGESTS = {
    "abelian3-trivial":
        "dc6aa068df8ea932969b753eb1ac69342d35d57f0269c891fdb37ad83e6f6321",
    "nonabelian2-trivial":
        "c919e8890938711ea8913dd988663103d3ac93d66b9745aaa1cce4a503162317",
    "sl2-trivial":
        "0eba9db820b6b773ea778ce15ad6b5c51377187302880bbce5622bada71072f2",
    "sl2-adjoint":
        "e12df0793e574066923b8a5f6345636db73feaba51d9f225c5c8a7f0f4f4543d",
}


@pytest.mark.parametrize("case", sorted(CE_DIGESTS))
def test_chevalley_eilenberg_maps_match_hand_indexed_digests(case):
    f = QQ
    name, coefficients = case.split("-")
    g = {"abelian3": lambda: abelian_lie(f, 3), "nonabelian2": lambda: nonabelian_lie2(f),
         "sl2": lambda: sl2(f)}[name]()
    if coefficients == "adjoint":
        # ad(e_i)[k, j] = c^k_ij
        rep = [
            ExactMatrix(g.dim, g.dim, f, {
                (k, j): c for j in range(g.dim) for k, c in g.mul_basis(i, j).items()
            })
            for i in range(g.dim)
        ]
        C = chevalley_eilenberg(g, rep, g.dim, 3)
    else:
        C = chevalley_eilenberg(g, [ExactMatrix.zeros(1, 1, f)] * g.dim, 1, min(g.dim, 3))
    obj = [C.maps[p].to_json() for p in sorted(C.maps)]
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == CE_DIGESTS[case]


def _full_closure_bases(A, q, N, n_max):
    """The closure of Omega_q(A) recomputed in full on every pass: per degree
    n, [S_n | d S_(n-1) | P_(a,n-a) (S_a ox S_(n-a)) for every a], until a
    pass changes no basis.  Returns (T, d_1, bases)."""
    f = A.field
    T = tensor_algebra(A, n_max)
    D = d1(T, q, N)
    bases = [Subspace.full(A.dim, f)]
    bases += [Subspace(T.dims[n], ExactMatrix.zeros(T.dims[n], 0, f), positions=())
              for n in range(1, n_max + 1)]
    changed = True
    while changed:
        changed = False
        for n in range(1, n_max + 1):
            S = [B.basis for B in bases]
            cols = [S[n], D.map(n - 1) @ S[n - 1]] + [
                T.product(a, n - a) @ kron(S[a], S[n - a]) for a in range(n + 1)
            ]
            new = image_basis(reduce(ExactMatrix.hstack, cols))
            changed = changed or new.dim != bases[n].dim
            bases[n] = new
    return T, D, bases


def _omega_q_case(case):
    f3, f6 = make_cyclotomic(3), make_cyclotomic(6)
    return {
        "dual-Q(zeta_3)-N3-7": (dual_numbers(f3), f3.zeta(), 3, 7),
        "truncated3-Q(zeta_3)-N3-5": (truncated_polynomials(f3, 3), f3.zeta(), 3, 5),
        "cyclic2-Q(zeta_6)-N6-4": (group_algebra_cyclic(f6, 2), f6.zeta(), 6, 4),
        "field-Q(zeta_3)-N3-3": (field_algebra(f3), f3.zeta(), 3, 3),
    }[case]


def _same_span(S, R):
    """rank [S | R] = dim S = dim R, for two subspaces with independent
    bases."""
    return rank(S.basis.hstack(R.basis)) == S.dim == R.dim


# sha256 of the word bases, the restricted d_1 and every P_ab with
# a + b <= n_max of Omega_q(A), recorded from the normal-form words
OMEGA_Q_DIGESTS = {
    "dual-Q(zeta_3)-N3-7":
        "0b7fc8a0881a00c99903ad59d72887d43a070d6402985d07bc0399d59ae40a88",
    "truncated3-Q(zeta_3)-N3-5":
        "f00897f9e6acc0a5a8481ef7c54806ddc408a1ecaae20df4ea863a52a01eff51",
    "cyclic2-Q(zeta_6)-N6-4":
        "e7a02c19df5d7f07769cd4aa53de2e217e6b5f2dced6e454693ec9a9580a91ec",
}


@pytest.mark.parametrize("case", sorted(OMEGA_Q_DIGESTS))
def test_omega_q_matches_full_closure(case):
    """The words span what the full closure spans at every level, d_1 and
    every P_ab with a + b <= n_max are the closure's own T(A) maps restricted
    into the word bases, and the bases, maps and products are pinned."""
    A, q, N, n_max = _omega_q_case(case)
    C, bases = omega_q(A, q, N, n_max)
    T, D, ref = _full_closure_bases(A, q, N, n_max)
    assert all(map(_same_span, bases, ref))
    obj = [B.basis.to_json() for B in bases]
    obj += [C.maps[n].to_json() for n in range(n_max)]
    assert obj[n_max + 1:] == [
        restrict(D.map(n), bases[n], bases[n + 1]).to_json() for n in range(n_max)]
    pairs = [(a, b) for a in range(n_max + 1) for b in range(n_max + 1 - a)]
    obj += [C.product(a, b).to_json() for a, b in pairs]
    assert obj[2 * n_max + 1:] == [
        restrict(T.product(a, b), Subspace(T.dims[a] * T.dims[b],
                 kron(bases[a].basis, bases[b].basis)), bases[a + b]).to_json()
        for a, b in pairs]
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == OMEGA_Q_DIGESTS[case]


def _span_case(algebra, N):
    f = {2: QQ, 3: make_cyclotomic(3), 4: make_cyclotomic(4)}[N]
    q = f.neg(f.one) if N == 2 else f.zeta()
    A = {"dual": dual_numbers, "cyclic3": lambda f: group_algebra_cyclic(f, 3),
         "truncated3": lambda f: truncated_polynomials(f, 3),
         "kxk": diagonal_algebra}[algebra](f)
    return A, q, (5 if A.dim == 2 else 4)


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("algebra", ["dual", "cyclic3", "truncated3", "kxk"])
def test_omega_q_words_span_the_closure(algebra, N):
    """At every level the words span what the semi-naive closure and the full
    closure span, and the two closures pick the same bases; at N = 2, q = -1
    they also span the normalized cochains, and ``universal_envelope`` is
    the same words."""
    A, q, n_max = _span_case(algebra, N)
    C, bases = omega_q(A, q, N, n_max)
    T, D, full = _full_closure_bases(A, q, N, n_max)
    _, closure = oracle_omega_q_closure(T, D)
    assert [B.basis for B in closure] == [B.basis for B in full]
    assert all(map(_same_span, bases, closure))
    if N == 2:
        _, normalized = oracle_normalized_subcomplex(T)
        assert all(map(_same_span, bases, normalized))
        omega, envelope = universal_envelope(A, n_max)
        assert [B.basis for B in envelope] == [B.basis for B in bases]
        assert omega.maps == C.maps


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("algebra", ["dual", "cyclic3", "truncated3", "kxk"])
def test_restrict_matches_the_per_column_oracle(algebra, N):
    """``restrict`` reads the one product M S.basis; on the word maps d_1
    and every word product P_ab, a + b <= n_max, it gives what
    ``oracle_restrict`` gives column by column, and the complex keeps it."""
    A, q, n_max = _span_case(algebra, N)
    C, bases = omega_q(A, q, N, n_max)
    T = tensor_algebra(A, n_max)
    D = d1(T, q, N)
    for n in range(n_max):
        want = oracle_restrict(D.map(n), bases[n], bases[n + 1])
        assert restrict(D.map(n), bases[n], bases[n + 1]) == want == C.maps[n]
    for a in range(n_max + 1):
        for b in range(n_max + 1 - a):
            pairs = Subspace(T.dims[a] * T.dims[b], kron(bases[a].basis, bases[b].basis))
            want = oracle_restrict(T.product(a, b), pairs, bases[a + b])
            assert restrict(T.product(a, b), pairs, bases[a + b]) == want == C.product(a, b)


def _word_count(a, N, n):
    """a sum (a-1)^r over the compositions of n with parts in 1..N-1, r the
    number of parts."""
    return a * sum((a - 1) ** r for r in range(n + 1)
                   for parts in itertools.product(range(1, N), repeat=r)
                   if sum(parts) == n)


def test_omega_q_dims_are_the_word_count():
    assert [_word_count(2, 3, n) for n in range(8)] == [2, 2, 4, 6, 10, 16, 26, 42]
    assert [_word_count(3, 3, n) for n in range(5)] == [3, 6, 18, 48, 132]
    assert [_word_count(2, 4, n) for n in range(6)] == [2, 2, 4, 8, 14, 26]
    f3, f4 = make_cyclotomic(3), make_cyclotomic(4)
    for A, q, N, n_max in (
        (dual_numbers(f3), f3.zeta(), 3, 7),
        (group_algebra_cyclic(f3, 3), f3.zeta(), 3, 4),
        (diagonal_algebra(f4), f4.zeta(), 4, 5),
        (field_algebra(f4), f4.zeta(), 4, 3),
    ):
        C, _ = omega_q(A, q, N, n_max)
        assert C.dims == {n: _word_count(A.dim, N, n) for n in range(n_max + 1)}


def _bump(T, ncols, level):
    """An ncols-column matrix into T^level sending every column to
    1 ox ... ox 1, which no word of level >= 1 reaches: the full product
    T^level -> A kills every word with a d-letter."""
    f = T.field
    return ExactMatrix(T.dims[level], ncols, f, {(0, j): f.one for j in range(ncols)})


@pytest.mark.parametrize("tamper, message", [
    ("d-level-0", "the Omega_q words of level 1 are dependent"),
    ("d-level-2", "d_1 moves a word of level 2 out of the words"),
    ("product-1-0", "the Omega_q words are not closed under the product"),
], ids=["independence", "d1-stability", "product"])
def test_omega_q_words_certificate_raises(tamper, message):
    """Each certificate check fires on its own: a d_1 that kills A makes the
    words of level 1 zero; a d_1 from level 2 (used by no word at N = 3,
    n_max = 3) that leaves the words fails d_1-stability; a P_10 that leaves
    the words fails W_1 A in W_1, the only check that reads P_(n,0)."""
    f = make_cyclotomic(3)
    A = dual_numbers(f)
    T = tensor_algebra(A, 3)
    D = d1(T, f.zeta(), 3)
    if tamper == "d-level-0":
        D.maps[0] = ExactMatrix.zeros(T.dims[1], T.dims[0], f)
    elif tamper == "d-level-2":
        D.maps[2] = D.maps[2] + _bump(T, T.dims[2], 3)
    else:
        product, bump = T.product, _bump(T, T.dims[1] * T.dims[0], 1)

        def tampered(a, b):
            P = product(a, b)
            return P + bump if (a, b) == (1, 0) else P

        T.product = tampered
    with pytest.raises(AssertionError, match=f"^{message}$"):
        cosimplicial._omega_q_words(A, T, D)


def test_prop7_checks_a1_before_any_homology(monkeypatch):
    """The dual numbers over Q at q = -1, N = 4 satisfy (A0) but not (A1):
    prop7_verify refuses them before it computes the homology of T(A)."""
    def refuse(*args, **kwargs):
        raise AssertionError("graded_homology was called")

    monkeypatch.setattr(cosimplicial, "graded_homology", refuse)
    with pytest.raises(ValueError, match=r"^\(A1\) required$"):
        prop7_verify(dual_numbers(QQ), QQ.neg(QQ.one), 4, 3)


@pytest.mark.parametrize("case", ["dual-Q(zeta_3)-N3-7", "field-Q(zeta_3)-N3-3",
                                  "truncated3-Q(zeta_3)-N3-5"])
def test_omega_q_elimination_counts(monkeypatch, case):
    """The closure oracle eliminates a degree exactly when it has a new
    candidate: d of a column of S_(n-1), or a pair (i, j) of S_a ox S_(n-a)
    with i or j added since the degree last closed; replayed from the basis
    sizes that the eliminations return."""
    A, q, N, n_max = _omega_q_case(case)
    log = []

    def counted(M):
        B = image_basis(M)
        log.append((M.nrows, B.dim))
        return B

    T = tensor_algebra(A, n_max)
    D = d1(T, q, N)
    monkeypatch.setattr(helpers, "image_basis", counted)
    oracle_omega_q_closure(T, D)
    dims = [A.dim] + [0] * n_max
    seen = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    replay, changed = [], True
    while changed:
        changed = False
        for n in range(1, n_max + 1):
            w, seen[n] = seen[n], list(dims)
            new = dims[n - 1] - w[n - 1] + sum(
                dims[a] * dims[n - a] - w[a] * w[n - a] for a in range(n + 1))
            if new:
                step = log[len(replay)] if len(replay) < len(log) else None
                assert step and step[0] == A.dim ** (n + 1), (
                    f"degree {n} has new candidates but was not eliminated")
                replay.append(step)
                changed = changed or step[1] != dims[n]
                dims[n] = step[1]
    assert replay == log
    if case.startswith("field"):
        # d_1 kills the unit, so S_1 = 0 and degrees 2 and 3 have no
        # candidate; the full recomputation eliminated all three degrees
        assert log == [(1, 0)]
