import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex.fields import QQ, make_cyclotomic, rat
from ncomplex.linalg import (
    ExactMatrix,
    Subspace,
    image_basis,
    kernel_basis,
    rank,
    solve,
)
from ncomplex.ndiff import (
    NDiffModule,
    all_hexagons_check,
    block_module,
    connecting_well_defined,
    green_tensor,
    hexagon_check,
    homology,
    homotopy_criterion_lemma3,
    homotopy_criterion_lemma4,
    induced_d,
    induced_i,
    jordan_block,
    multiplicities,
    proposition4_check,
    random_ndiff,
    random_ses,
    random_unimodular,
    ses_hexagon_check,
    stable_quotient,
    submodule,
)


def test_construction_rejects_bad_nilpotency():
    d = ExactMatrix.identity(3, QQ)
    with pytest.raises(ValueError):
        NDiffModule(3, d)


def _naive_power(d, k):
    """d^k as the identity-started product chain, independent of ``power``."""
    acc = ExactMatrix.identity(d.nrows, d.field)
    for _ in range(k):
        acc = acc @ d
    return acc


@st.composite
def square_cases(draw):
    """(N, d) over Q or Q(zeta_4): arbitrary sparse matrices, strictly upper
    triangular ones (nilpotent of any index), conjugated Jordan sums from
    ``random_ndiff`` (d^N = 0) and the edge cases D_N and D_(N+1)."""
    f = draw(st.sampled_from([QQ, make_cyclotomic(4)]))
    N = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["sparse", "strict-upper", "random-ndiff", "jordan"]))
    if kind == "random-ndiff":
        seed = draw(st.integers(0, 2**32 - 1))
        return N, random_ndiff(f, N, draw(st.integers(1, 7)), random.Random(seed))[0].d
    if kind == "jordan":
        return N, jordan_block(N + draw(st.integers(0, 1)), f)
    n = draw(st.integers(0, 5))
    cells = [
        (r, c) for r in range(n) for c in range(n)
        if kind == "sparse" or c > r
    ]
    coeff = st.integers(-2, 2).map(rat)
    scalar = coeff if f is QQ else st.tuples(*[coeff] * f.degree).map(f.from_coeffs)
    ent = draw(st.dictionaries(st.sampled_from(cells), scalar)) if cells else {}
    return N, ExactMatrix(n, n, f, ent)


@given(square_cases())
@settings(max_examples=200, deadline=None)
def test_nilpotency_certificate_matches_power_oracle(case):
    """The image chain rejects d exactly when d^N != 0, and its dimensions are
    the ranks of the explicit powers."""
    N, d = case
    if _naive_power(d, N).is_zero():
        E = NDiffModule(N, d)
    else:
        with pytest.raises(ValueError, match=rf"d\^{N} != 0: not an {N}-differential"):
            NDiffModule(N, d)
        E = NDiffModule(N, d, check=False)
    assert E.rank_profile() == [rank(_naive_power(d, m)) for m in range(N + 1)]


def test_jordan_block_profile():
    E = NDiffModule(3, jordan_block(3, QQ))
    assert E.rank_profile() == [3, 2, 1, 0]
    H = homology(E)
    assert H.dims() == {1: 0, 2: 0}


def test_homology_d3_plus_d1():
    E = block_module(QQ, 3, [3, 1])
    H = homology(E)
    assert H.dims() == {1: 1, 2: 1}
    # representative of H_(1) is a d-cycle independent of B_(1)
    slot = H[1]
    rep = slot.representatives.column(0)
    assert not E.d.apply(rep)


def test_homology_zero_differential():
    E = NDiffModule(4, ExactMatrix.zeros(5, 5, QQ).scale(QQ.one), check=True)
    H = homology(E)
    assert all(v == 5 for v in H.dims().values())


def test_multiplicities_recover_blocks():
    rng = random.Random(0)
    for _ in range(10):
        N = rng.randint(2, 5)
        E, truth = random_ndiff(QQ, N, rng.randint(3, 25), rng)
        got = multiplicities(E).counts
        assert got == truth


def test_proposition4_examples():
    # one D_3: dim H_(1) = m1 + m2 = 0
    E = block_module(QQ, 3, [3])
    rep = proposition4_check(E)
    assert rep["ok"] and rep["formula"][1] == 0
    # D_3 + D_1: dim H_(1) = 1
    E = block_module(QQ, 3, [3, 1])
    rep = proposition4_check(E)
    assert rep["ok"] and rep["formula"][1] == 1
    # N=4, blocks (2, 4): dims H_(1) = 1, H_(2) = 2
    E = block_module(QQ, 4, [2, 4])
    rep = proposition4_check(E)
    assert rep["ok"]
    assert rep["dims"][1] == 1 and rep["dims"][2] == 2


def test_proposition4_random():
    rng = random.Random(5)
    for _ in range(15):
        N = rng.randint(3, 5)
        E, _ = random_ndiff(QQ, N, rng.randint(4, 30), rng)
        assert proposition4_check(E)["ok"]


def test_dimension_symmetry():
    rng = random.Random(6)
    for _ in range(10):
        N = rng.randint(2, 5)
        E, _ = random_ndiff(QQ, N, rng.randint(3, 24), rng)
        dims = homology(E).dims()
        for m in range(1, N):
            assert dims[m] == dims[N - m]


def test_induced_maps_zero_differential():
    E = NDiffModule(3, ExactMatrix.zeros(4, 4, QQ))
    # with d = 0 all H_(m) = E with identical representatives, so [i] = Id
    assert induced_i(E, 1) == ExactMatrix.identity(4, QQ)
    assert induced_d(E, 1).is_zero()


def test_induced_d_kills_fixed_vector():
    E = block_module(QQ, 3, [3, 1])
    # surviving class is the D_1 fixed vector, killed by d
    assert induced_d(E, 1).is_zero()


def test_induced_composition_identity():
    # [d] o [i] on H_(m) equals the map induced by d
    rng = random.Random(9)
    for _ in range(6):
        E, _ = random_ndiff(QQ, 4, rng.randint(4, 16), rng)
        H = homology(E)
        for m in range(1, 3):
            lhs = induced_d(E, m) @ induced_i(E, m)
            # map induced by d on H_(m): class z -> class dz
            cols = [
                H[m].quotient.coordinates(E.d.apply(z))
                for z in H[m].representatives.columns()
            ]
            rhs = ExactMatrix.from_columns(cols, H[m].dim_H, QQ)
            assert lhs == rhs


def test_hexagon_parameter_validation():
    E = block_module(QQ, 4, [4])
    with pytest.raises(ValueError):
        hexagon_check(E, 2, 2)


def test_hexagon_zero_differential():
    E = NDiffModule(4, ExactMatrix.zeros(3, 3, QQ))
    assert hexagon_check(E, 1, 1)["ok"]
    assert hexagon_check(E, 1, 2)["ok"]


def test_hexagon_d5_blocks():
    E = block_module(QQ, 5, [5, 2, 2])
    assert hexagon_check(E, 1, 2)["ok"]


def test_hexagons_random():
    rng = random.Random(11)
    for _ in range(12):
        N = rng.randint(3, 5)
        E, _ = random_ndiff(QQ, N, rng.randint(4, 20), rng)
        assert all_hexagons_check(E)["ok"]


def test_hexagons_cyclotomic_field():
    rng = random.Random(12)
    f = make_cyclotomic(3)
    E, _ = random_ndiff(f, 3, 9, rng)
    assert all_hexagons_check(E)["ok"]


def test_lemma3_single_block():
    N = 4
    E = NDiffModule(N, jordan_block(N, QQ))
    h = E.d.transpose().power(N - 1)
    assert homotopy_criterion_lemma3(E, [h] * N)
    # h = 0 with d != 0 fails
    zero = ExactMatrix.zeros(N, N, QQ)
    assert not homotopy_criterion_lemma3(E, [zero] * N)


def test_lemma2_contrapositive_on_acyclic_instances():
    # all blocks of size N: one H_(k) vanishing forces all to vanish
    rng = random.Random(13)
    for N in (3, 4):
        E = block_module(QQ, N, [N] * 3)
        P, Pinv = random_unimodular(3 * N, QQ, rng)
        E = NDiffModule(N, P @ E.d @ Pinv)
        dims = homology(E).dims()
        assert 0 in dims.values()
        assert all(v == 0 for v in dims.values())


def test_lemma4_matrix_algebra_homotopy():
    # deferred cross-check lives in test_graded (needs the Z_N example)
    f = make_cyclotomic(3)
    z = f.zeta()
    E = NDiffModule(3, jordan_block(3, f))
    h = ExactMatrix.from_rows(
        [[f.zero, f.zero, f.zero],
         [f.one, f.zero, f.zero],
         [f.zero, f.add(f.one, z), f.zero]], f
    )
    # h d - q d h with q = zeta: check it is the identity for this hand-built h
    lhs = (h @ E.d) - (E.d @ h).scale(z)
    if lhs == ExactMatrix.identity(3, f):
        assert homotopy_criterion_lemma4(E, h, z)
    else:
        # fall back: criterion returns False but must not crash
        assert homotopy_criterion_lemma4(E, h, z) is False


def test_green_tensor_fermions():
    # two D_2 blocks: 3-differential on dim 4 with d^2 != 0, d^3 = 0
    E1 = NDiffModule(2, jordan_block(2, QQ))
    E2 = NDiffModule(2, jordan_block(2, QQ))
    T = green_tensor(E1, E2)
    assert T.N == 3 and T.dim == 4
    assert not T.power(2).is_zero()
    assert T.power(3).is_zero()
    # iterated: parafermion of order 3
    T3 = green_tensor(T, NDiffModule(2, jordan_block(2, QQ)))
    assert T3.N == 4 and T3.power(4).is_zero() and not T3.power(3).is_zero()


def test_green_tensor_zero_side():
    E1 = NDiffModule(3, jordan_block(3, QQ))
    E2 = NDiffModule(2, ExactMatrix.zeros(2, 2, QQ))
    T = green_tensor(E1, E2)
    assert T.N == 4
    assert T.power(3).is_zero()


def test_submodule_quotient_roundtrip():
    rng = random.Random(20)
    E, _ = random_ndiff(QQ, 3, 10, rng)
    S = image_basis(E.power(1))
    sub = submodule(E, S)
    G, proj, sect = stable_quotient(E, S)
    assert sub.dim + G.dim == E.dim
    assert (proj @ E.d) == (G.d @ proj)


def test_ses_split_connecting_zero():
    # split sequence: E + G with block diagonal differential
    E = block_module(QQ, 3, [3])
    G = block_module(QQ, 3, [1, 2])
    F = block_module(QQ, 3, [3, 1, 2])
    phi = ExactMatrix.from_int_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]], QQ
    )
    psi = ExactMatrix.from_int_rows(
        [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], QQ
    )
    from ncomplex.ndiff import ShortExactSequence, ses_connecting

    ses = ShortExactSequence(E, F, G, phi, psi)
    ses.validate()
    for m in (1, 2):
        assert ses_connecting(ses, m).is_zero()
    assert ses_hexagon_check(ses)["ok"]


def test_ses_classical_snake_iso():
    # N=2 cone: F contractible, so partial: H(G) -> H(E) is an isomorphism
    rng = random.Random(30)
    while True:
        F = block_module(QQ, 2, [2, 2, 2])
        P, Pinv = random_unimodular(6, QQ, rng)
        F = NDiffModule(2, P @ F.d @ Pinv)
        from ncomplex.ndiff import random_stable_subspace

        S = random_stable_subspace(F, rng)
        if S and 0 < S.dim < 6:
            break
    E = submodule(F, S)
    G, proj, _ = stable_quotient(F, S)
    from ncomplex.ndiff import ShortExactSequence, ses_connecting

    ses = ShortExactSequence(E, F, G, S.basis, proj)
    ses.validate()
    assert all(v == 0 for v in homology(F).dims().values())
    partial = ses_connecting(ses, 1)
    HG = homology(G)[1].dim_H
    HE = homology(E)[1].dim_H
    assert HG == HE == rank(partial)


def test_ses_random_hexagons_and_well_definedness():
    rng = random.Random(31)
    for _ in range(6):
        N = rng.choice((3, 4))
        ses = random_ses(QQ, N, rng)
        assert ses_hexagon_check(ses)["ok"]
        for m in range(1, N):
            assert connecting_well_defined(ses, m, rng, trials=4)


def test_module_json_roundtrip():
    E = block_module(QQ, 3, [3, 2])
    obj = E.to_json()
    E2 = NDiffModule.from_json(obj)
    assert E2.N == E.N and E2.d == E.d


# -- the connecting map on integer numerators -----------------------------------


def _reference_connect(ses, z, m, shift=None):
    """The connecting map as a chain of scalar solves and applies."""
    f = ses.F.field
    y = solve(ses.psi, z)
    if shift is not None:
        for j, v in shift.items():
            s = f.add(y.get(j, f.zero), v)
            if f.is_zero(s):
                y.pop(j, None)
            else:
                y[j] = s
    x = solve(ses.phi, ses.F.power(m).apply(y))
    assert not ses.E.power(ses.E.N - m).apply(x)
    return x


def _reference_well_defined(ses, m, rng, trials):
    """connecting_well_defined with scalar shifts and the reference chain."""
    f = ses.F.field
    HG = homology(ses.G)[m]
    HE = homology(ses.E)[ses.E.N - m]
    ker_psi = kernel_basis(ses.psi)
    for z in HG.representatives.columns():
        base = HE.quotient.coordinates(_reference_connect(ses, z, m))
        for _ in range(trials):
            if ker_psi.dim == 0:
                break
            shift = {}
            for col in ker_psi.basis.columns():
                c = f.from_rat(rng.randint(-3, 3))
                if not f.is_zero(c):
                    for i, v in col.items():
                        shift[i] = f.add(shift.get(i, f.zero), f.mul(c, v))
            x = _reference_connect(ses, z, m, shift)
            if HE.quotient.coordinates(x) != base:
                return False
    return True


@pytest.mark.parametrize("seed", range(6))
def test_numerator_connecting_map_matches_scalar_chain(seed):
    rng = random.Random(500 + seed)
    N = rng.choice((3, 4, 5))
    ses = random_ses(QQ, N, rng)
    f = QQ
    K = kernel_basis(ses.psi).basis
    for m in range(1, N):
        for z in homology(ses.G)[m].representatives.columns():
            x = ses.connect_vector(z, m)
            assert x == _reference_connect(ses, z, m)
            assert all(type(v) is type(rat(0)) for v in x.values())
            for _ in range(3):
                shift = K.apply({j: rat(rng.randint(-5, 5), rng.randint(1, 6))
                                 for j in range(K.ncols)})
                nums, D = f.split(list(shift.values()))
                got = ses.connect_vector(z, m, lift_shift=(dict(zip(shift, nums)), D))
                assert got == _reference_connect(ses, z, m, shift)
        state = rng.getstate()
        ref = random.Random()
        ref.setstate(state)
        verdict = connecting_well_defined(ses, m, rng, trials=3)
        assert verdict == _reference_well_defined(ses, m, ref, trials=3)
        assert rng.getstate() == ref.getstate()
