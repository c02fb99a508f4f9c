import hashlib
import json

import pytest

from ncomplex.fields import QQ, make_cyclotomic
from ncomplex.graded import check_graded_q_leibniz, graded_homology
from ncomplex.linalg import ExactMatrix
from ncomplex.cosimplicial import (
    AlgebraData,
    BimoduleData,
    abelian_lie,
    chevalley_eilenberg,
    constant_cosimplicial,
    d0,
    d1,
    dual_numbers,
    field_algebra,
    hochschild,
    matrix_algebra,
    nonabelian_lie2,
    normalized_subcomplex,
    omega_q,
    ordinary_cohomology_dims,
    prop7_verify,
    q_tensor_leibniz_witness,
    simplicial_differential,
    sl2,
    tensor_algebra,
    theorem2_verify,
    truncated_polynomials,
    universal_envelope,
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


def test_constant_cosimplicial_cohomology():
    E = constant_cosimplicial(QQ, 5)
    C = simplicial_differential(E)
    H = graded_homology(C, ms=[1])
    assert H[(0, 1)].dim_H == 1
    for n in range(1, 5):
        assert H[(n, 1)].dim_H == 0


def test_relation_failure_reported():
    # tamper with a coface: (F) must fail with the offending indices
    E = constant_cosimplicial(QQ, 3)
    E.cofaces[1][1] = ExactMatrix.from_int_rows([[2]], QQ)
    with pytest.raises(ValueError, match=r"\(F\) fails"):
        E.validate_relations()


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
    sub, bases = normalized_subcomplex(E)
    assert sub.dims[0] == 1
    for n in range(1, 4):
        assert sub.dims[n] == 0


def test_normalized_hochschild_kills_unit_arguments():
    # normalized cochains vanish when any argument is the unit
    A = dual_numbers(QQ)
    E = hochschild(A, BimoduleData.regular(A), 4)
    sub, bases = normalized_subcomplex(E)
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
    T = tensor_algebra(A, 4)  # validates (F),(S),(SF),(MF1),(MF2),(MS)
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
    T = tensor_algebra(A, 3, check_m_axioms=False)
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
    T = tensor_algebra(A, 4, check_m_axioms=False)
    C = d1(T, f.zeta(), 3)
    C.product = T.product
    assert check_graded_q_leibniz(C, f.zeta())


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


def test_q_leibniz_fails_on_tensor_square_at_n3():
    # the negative statement: for two graded q-differential algebras at N=3
    # the tensor differential violates the q-Leibniz rule on a concrete pair
    f = make_cyclotomic(3)
    A = dual_numbers(f)
    Oq, _ = omega_q(A, f.zeta(), 3, 4)
    assert q_tensor_leibniz_witness(Oq, f.zeta()) is not None
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


@pytest.mark.parametrize(
    "case", sorted(STRUCTURE_MAP_DIGESTS), ids=lambda c: "-".join(map(str, c))
)
def test_structure_maps_match_hand_indexed_digests(case):
    builder, algebra, M, n_max = case
    f = QQ if M == 1 else make_cyclotomic(M)
    A = {
        "dual_numbers": dual_numbers,
        "truncated_polynomials": lambda f: truncated_polynomials(f, 4),
        "matrix_algebra": lambda f: matrix_algebra(f, 2),
    }[algebra](f)
    if builder == "hochschild":
        E = hochschild(A, BimoduleData.regular(A), n_max)
    else:
        E = tensor_algebra(A, n_max, check_m_axioms=False)
    mats = [M for level in E.cofaces + E.codegens for M in level]
    digest = hashlib.sha256(
        json.dumps([M.to_json() for M in mats], sort_keys=True).encode()
    ).hexdigest()
    assert digest == STRUCTURE_MAP_DIGESTS[case]
