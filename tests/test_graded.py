import hashlib
import json
import random

import pytest

from ncomplex.fields import QQ, make_cyclotomic
from ncomplex.graded import (
    GradedNComplex,
    GradedSES,
    WindowError,
    check_graded_q_leibniz,
    graded_connecting,
    graded_homology,
    kunneth_check,
    les_check,
    matrix_algebra_complex,
    q_tensor,
    random_graded_complex,
)
from ncomplex.linalg import ExactMatrix, QuotientSpace, rank
from ncomplex.ndiff import HomologySlot, homology, homotopy_criterion_lemma4
from helpers import (
    from_int_rows,
    oracle_graded_connecting,
    quotient_map,
    random_graded_ses,
    spans_subspace,
    tensor_pos,
    to_zgraded,
)


def two_term_complex(field, mat):
    """0 -> k^a -> k^b -> 0 in degrees 0, 1."""
    return GradedNComplex(
        2, field, {0: mat.ncols, 1: mat.nrows}, {0: mat}
    )


def test_concentrated_complex():
    C = GradedNComplex(3, QQ, {0: 4}, {})
    H = graded_homology(C)
    for m in (1, 2):
        assert H[(0, m)].dim_H == 4


def test_two_term_identity_acyclic():
    C = two_term_complex(QQ, ExactMatrix.identity(3, QQ))
    H = graded_homology(C)
    assert H[(0, 1)].dim_H == 0
    assert H[(1, 1)].dim_H == 0


def test_validity_window_truncated():
    # truncated above: top homology must be absent, not wrong
    C = GradedNComplex(
        3, QQ, {0: 1, 1: 1, 2: 1}, {0: ExactMatrix.zeros(1, 1, QQ), 1: ExactMatrix.zeros(1, 1, QQ)},
        truncated_above=True,
    )
    H = graded_homology(C)
    assert H.valid(0, 1) and H.valid(1, 1)
    assert not H.valid(2, 1)  # d out of degree 2 unknown
    assert not H.valid(2, 2) and H.valid(0, 2)
    with pytest.raises(WindowError):
        H[(2, 1)]


@pytest.mark.parametrize("cyclic", [False, True], ids=["bounded", "cyclic"])
def test_graded_homology_refuses_degrees_outside_1_to_N_minus_1(cyclic):
    """Each m outside 1..N-1 is refused: m = 0 and m = N would give vacuous
    zero slots, and m > N would ask ``composite`` for a negative power."""
    C = random_graded_complex(QQ, 3, random.Random(1), cyclic=cyclic)
    for m in (0, 3, 4, -1):
        with pytest.raises(ValueError, match="need 1 <= m <= N-1"):
            graded_homology(C, ms=[m])
    with pytest.raises(ValueError, match="need k >= 0"):
        C.composite(0, -1)
    assert graded_homology(C, ms=[1, 2]).dims() == graded_homology(C).dims()


def test_total_module_consistency():
    rng = random.Random(3)
    C = random_graded_complex(QQ, 3, rng, lo=0, hi=5, strings=7)
    E = C.total_module()
    HC = graded_homology(C)
    HE = homology(E)
    for m in (1, 2):
        assert HE.dims()[m] == sum(HC[(n, m)].dim_H for n in C.degrees())


@pytest.mark.parametrize("N", [3, 4, 5])
def test_matrix_algebra_complex(N):
    f = make_cyclotomic(N)
    q = f.zeta()
    lambdas = [f.one] * N
    M = matrix_algebra_complex(N, q, lambdas, f)
    C = M.complex
    # e^N = lambda_1...lambda_N * identity
    assert M.e_power_is_scalar()
    # graded q-Leibniz rule on all basis pairs, and not for q^2
    assert check_graded_q_leibniz(C, q)
    assert not check_graded_q_leibniz(C, f.mul(q, q))
    # acyclicity when all lambda = 1 and 1 - q invertible
    total = C.total_module()
    assert all(v == 0 for v in homology(total).dims().values())


def _vector_matrix_algebra_product(M, a_deg, va, b_deg, vb):
    """The per-vector product E^k_l E^r_s = delta_(k,s) E^r_l that the
    matrices P_ab replaced."""
    f = M.field
    out = {}
    tgt = (a_deg + b_deg) % M.N
    for ia, ca in va.items():
        k, l = M.basis[a_deg % M.N][ia]
        for ib, cb in vb.items():
            r, s = M.basis[b_deg % M.N][ib]
            if k == s:
                f.accumulate(out, M.index[tgt][(r, l)], f.mul(ca, cb))
    return out


@pytest.mark.parametrize("N", [2, 3, 4])
def test_matrix_algebra_product_matches_vector_product(N):
    f = make_cyclotomic(2 * N)
    M = matrix_algebra_complex(N, f.pow(f.zeta(), 2), [f.one] * N, f)
    for a in range(N):
        for b in range(N):
            cols = M.complex.product(a, b).columns()
            assert len(cols) == N * N
            for i in range(N):
                for j in range(N):
                    want = _vector_matrix_algebra_product(M, a, {i: f.one}, b, {j: f.one})
                    assert cols[i * N + j] == want, (a, b, i, j)


# sha256 of the maps d_0..d_(N-1) and, where every lambda is nonzero, of the
# Lemma-4 homotopy, recorded from the builders that read e A and A e off the
# basis units instead of the product matrices
MATRIX_ALGEBRA_DIGESTS = {
    (3, (1, 1, 1)): (
        "fe497083a31e7149756721067b602b67a9cf7c9becee4bdbdda3727fb6f8c0dc",
        "e2c7b39cc559e624cca96b27020e68b90420e34286bafbb3cb9dd27df2bc91e3"),
    (3, (2, -1, 0)): (
        "b73dd16d2011c45c82202fec386fcbe2dd0433b51a9e8e6d472a8fb05d00dfce", None),
    (4, (1, 2, 3, 4)): (
        "680710f26e2183bb1fc8a14efa92cdcaf5b0d22ca396d9a250427ea4523c8a5d",
        "3189d20274ad60fd1245b003008ceb113b30b7788f0f332d88f47bc66c55605f"),
}


@pytest.mark.parametrize("case", sorted(MATRIX_ALGEBRA_DIGESTS), ids=str)
def test_matrix_algebra_maps_match_digests(case):
    N, lambdas = case
    f = make_cyclotomic(N)
    M = matrix_algebra_complex(N, f.zeta(), [f.from_rat(x) for x in lambdas], f)

    def digest(mats):
        obj = json.dumps([m.to_json() for m in mats], sort_keys=True)
        return hashlib.sha256(obj.encode()).hexdigest()

    maps_digest, homotopy_digest = MATRIX_ALGEBRA_DIGESTS[case]
    assert digest([M.complex.maps[a] for a in range(N)]) == maps_digest
    assert M.e_power_is_scalar()
    if homotopy_digest is not None:
        assert digest([M.lemma4_homotopy()[1]]) == homotopy_digest


def test_matrix_algebra_lemma4_homotopy():
    f = make_cyclotomic(3)
    M = matrix_algebra_complex(3, f.zeta(), [f.one] * 3, f)
    total, h = M.lemma4_homotopy()
    assert homotopy_criterion_lemma4(total, h, f.zeta())


def test_matrix_algebra_degenerate_lambda():
    # a zero lambda keeps d^N = 0; homology is computed and reported
    # (frozen from the rank computation: (1,1,0) stays acyclic, (1,0,0) not)
    f = make_cyclotomic(3)
    M = matrix_algebra_complex(3, f.zeta(), [f.one, f.one, f.zero], f)
    total = M.complex.total_module()
    assert total.power(3).is_zero()
    assert homology(total).dims() == {1: 0, 2: 0}
    M2 = matrix_algebra_complex(3, f.zeta(), [f.one, f.zero, f.zero], f)
    total2 = M2.complex.total_module()
    assert total2.power(3).is_zero()
    assert homology(total2).dims() == {1: 4, 2: 4}


def test_q_tensor_classical_sign_rule():
    # N = 2, q = -1 must reproduce the classical tensor differential
    f = QQ
    A = two_term_complex(f, from_int_rows([[1, 0], [0, 2]], f))
    B = two_term_complex(f, from_int_rows([[3]], f))
    T = q_tensor(A, B, f.neg(f.one))
    # spot entry: d(x ox y) on degree (1,0)-block must carry sign (-1)^1
    # checked globally by the power-formula validation inside q_tensor
    assert T.N == 2
    assert T.dims == {0: 2, 1: 4, 2: 2}


def test_q_tensor_matrix_example():
    f = make_cyclotomic(3)
    q = f.zeta()
    M = matrix_algebra_complex(3, q, [f.one] * 3, f)
    T = q_tensor(M.complex, M.complex, q)  # validates d^3 = 0 + power formula
    assert T.cyclic and T.dims[0] == 27


def test_q_tensor_rejects_weak_assumption():
    with pytest.raises(ValueError):
        q_tensor(
            two_term_complex(QQ, ExactMatrix.identity(1, QQ)),
            two_term_complex(QQ, ExactMatrix.identity(1, QQ)),
            QQ.one,
        )


def test_kunneth_field_factor():
    rng = random.Random(5)
    C = random_graded_complex(QQ, 2, rng, lo=0, hi=4, strings=5)
    point = GradedNComplex(2, QQ, {0: 1}, {})
    rep = kunneth_check(C, point)
    assert rep["ok"]
    HC = graded_homology(C)
    for n, (lhs, rhs) in rep["degrees"].items():
        if HC.valid(n, 1):
            assert lhs == HC[(n, 1)].dim_H


def test_kunneth_contractible_factor():
    C = two_term_complex(QQ, ExactMatrix.identity(1, QQ))
    rep = kunneth_check(C, C)
    assert rep["ok"]
    assert all(lhs == 0 for lhs, _ in rep["degrees"].values())


def test_kunneth_random():
    rng = random.Random(7)
    for _ in range(10):
        A = random_graded_complex(QQ, 2, rng, lo=0, hi=3, strings=4)
        B = random_graded_complex(QQ, 2, rng, lo=0, hi=3, strings=4)
        assert kunneth_check(A, B)["ok"]


def test_les_split():
    rng = random.Random(11)
    ses = random_graded_ses(QQ, 3, rng)
    rep = les_check(ses, 1, 0)
    assert rep["ok"]


def test_les_random():
    rng = random.Random(13)
    for _ in range(4):
        ses = random_graded_ses(QQ, 3, rng)
        for n in (1, 2):
            for p in (0, 1):
                assert les_check(ses, n, p)["ok"]


def test_cyclic_pullback():
    f = make_cyclotomic(3)
    M = matrix_algebra_complex(3, f.zeta(), [f.one] * 3, f)
    Z = to_zgraded(M.complex, -3, 5)
    assert Z.truncated_below and Z.truncated_above
    H = graded_homology(Z)
    for (n, m), slot in H.slots.items():
        assert slot.dim_H == 0  # acyclic example stays acyclic degreewise


def test_q_tensor_entrywise_matches_classical():
    # q = -1, N = 2: the maps must agree entry-for-entry with the hand-built
    # classical tensor differential d(e ox f) = de ox f + (-1)^deg(e) e ox df
    rng = random.Random(23)
    A = random_graded_complex(QQ, 2, rng, lo=0, hi=2, strings=3)
    B = random_graded_complex(QQ, 2, rng, lo=0, hi=2, strings=3)
    T = q_tensor(A, B, QQ.neg(QQ.one))
    from ncomplex.graded import TensorIndex

    idx = TensorIndex(A, B, False)
    f = QQ
    for n in sorted(T.maps):
        ent = {}
        for (r, s), off in idx.layout[n].items():
            dA, dB = A.map(r), B.map(s)
            sign = f.one if r % 2 == 0 else f.neg(f.one)
            for i in range(A.dims[r]):
                for j in range(B.dims[s]):
                    col = off + i * B.dims[s] + j
                    if dA is not None and (r + 1, s) in idx.layout.get(n + 1, {}):
                        for i2, v in dA.columns()[i].items():
                            ent[(tensor_pos(idx, n + 1, r + 1, s, i2, j), col)] = v
                    if dB is not None and (r, s + 1) in idx.layout.get(n + 1, {}):
                        for j2, v in dB.columns()[j].items():
                            key = (tensor_pos(idx, n + 1, r, s + 1, i, j2), col)
                            ent[key] = f.mul(sign, v)
        want = ExactMatrix(T.dims.get(n + 1, 0), T.dims[n], QQ, ent)
        assert T.maps[n] == want


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Q(zeta_3)"])
@pytest.mark.parametrize("cyclic", [False, True], ids=["bounded", "cyclic"])
def test_graded_connecting_matches_the_scalar_chain(field, cyclic):
    """The numerator chain gives the matrices of the scalar-solve chain at
    every (j, m), and the long sequences are exact."""
    rng = random.Random(61)
    N = 3
    nonzero = 0
    for _ in range(4):
        ses = random_graded_ses(field, N, rng, cyclic=cyclic)
        HE, HG = graded_homology(ses.E), graded_homology(ses.G)
        for j, m in HG.slots:
            tgt = (j + m) % N if cyclic else j + m
            if (tgt, N - m) not in HE.slots:
                continue
            got = graded_connecting(ses, HG.slots, HE.slots, j, m)
            assert got == oracle_graded_connecting(ses, HG.slots, HE.slots, j, m)
            nonzero += not got.is_zero()
        assert all(les_check(ses, n, 0)["ok"] for n in range(1, N))
    assert nonzero


def test_les_check_reads_only_present_maps(monkeypatch):
    """A degree where E, F and G vanish may carry no phi and psi: the
    sequence still passes, and only an arrow that would push a
    representative through an absent map is left out.  A KeyError raised
    while an arrow is built is a fault and propagates."""
    ses = random_graded_ses(QQ, 3, random.Random(6))
    assert ses.E.dims[1] == ses.F.dims[1] == ses.G.dims[1] == 0
    bare = GradedSES(ses.E, ses.F, ses.G,
                     {n: M for n, M in ses.phi.items() if n != 1},
                     {n: M for n, M in ses.psi.items() if n != 1})
    got = [les_check(bare, n, p) for n in (1, 2) for p in range(3)]
    assert all(r["ok"] for r in got)
    assert [r["checked"] for r in got] == [6, 8, 10, 10, 6, 8]

    def broken(self, target, image):
        raise KeyError("fault inside the arrow build")

    monkeypatch.setattr(HomologySlot, "map_to", broken)
    with pytest.raises(KeyError, match="fault inside"):
        les_check(random_graded_ses(QQ, 3, random.Random(7)), 1, 0)


def test_les_cone_connecting_isomorphisms():
    # F acyclic (all strings of full length N): the long sequences force the
    # connecting maps to be isomorphisms in every period
    rng = random.Random(29)
    N = 3
    checked_iso = 0
    ses = random_graded_ses(QQ, N, rng, min_len=N)  # F built from N-strings
    HF = graded_homology(ses.F)
    assert all(s.dim_H == 0 for s in HF.slots.values())
    for n in (1, 2):
        for p in (0, 1, 2):
            assert les_check(ses, n, p)["ok"]
    HE = graded_homology(ses.E)
    HG = graded_homology(ses.G)
    for (j, m), slotG in HG.slots.items():
        tgt = (j + m, N - m)
        if tgt not in HE.slots or slotG.dim_H == 0:
            continue
        partial = graded_connecting(ses, HG.slots, HE.slots, j, m)
        from ncomplex.linalg import rank as _rank

        assert _rank(partial) == slotG.dim_H == HE.slots[tgt].dim_H
        checked_iso += 1
    assert checked_iso > 0


def _product_chain(C, n, k):
    """d^k out of degree n as the identity-started product of the maps."""
    if C.dim(n) is None:
        return None
    acc = ExactMatrix.identity(C.dim(n), C.field)
    for j in range(k):
        M = C.map(n + j)
        if M is None:
            return None
        acc = M @ acc
    return acc


@pytest.mark.parametrize("shape", ["bounded", "truncated", "cyclic"])
def test_composite_matches_product_chain(shape):
    rng = random.Random(11)
    N = 4
    C = random_graded_complex(QQ, N, rng, lo=0, hi=6, strings=8,
                              cyclic=shape == "cyclic")
    if shape == "truncated":
        C = GradedNComplex(N, QQ, C.dims, C.maps,
                           truncated_below=True, truncated_above=True)
        assert C.composite(-1, 1) is None
        assert C.composite(6, 1) is None and C.composite(4, 3) is None
    degrees = range(-2, 9) if shape != "cyclic" else range(N)
    for n in degrees:
        for k in range(N + 1):
            want = _product_chain(C, n, k)
            got = C.composite(n, k)
            assert got == want
            assert C.composite(n, k) is got  # memoized


def test_les_check_reuses_graded_homology(monkeypatch):
    """The default ``graded_homology`` is memoized on the complex: over 6
    sequences and every (n, p), 36 ``les_check`` calls compute the homology
    of E, F and G once each, with the reports of uncached calls."""
    from ncomplex import graded

    N = 3
    seqs = [random_graded_ses(QQ, N, random.Random(seed)) for seed in range(6)]
    calls = [(ses, n, p) for ses in seqs for n in range(1, N) for p in range(N)]

    def uncached(ses, n, p):
        for C in (ses.E, ses.F, ses.G):
            C._homology = None
        return les_check(ses, n, p)

    want = [uncached(*call) for call in calls]
    for ses in seqs:
        for C in (ses.E, ses.F, ses.G):
            C._homology = None
    built = []

    class Counting(graded.Homology):
        def __init__(self, slots):
            built.append(1)
            super().__init__(slots)

    monkeypatch.setattr(graded, "Homology", Counting)
    got = [les_check(*call) for call in calls]
    assert len(calls) == 36 and len(built) == 18
    assert got == want


# -- lazy homology quotients ---------------------------------------------------


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Q(zeta_3)"])
@pytest.mark.parametrize("cyclic", [False, True], ids=["bounded", "cyclic"])
def test_lazy_graded_slots_match_eager_slots(field, cyclic):
    """No slot builds its quotient up front; each matches a
    ``QuotientSpace`` built at once on the same Z and B in dimension,
    representatives and the [i] and [d] matrices."""
    rng = random.Random(43)
    N = 3
    for _ in range(3):
        C = random_graded_complex(field, N, rng, lo=0, hi=5, strings=6,
                                  cyclic=cyclic)
        slots = graded_homology(C).slots
        assert slots and not any("quotient" in vars(s) for s in slots.values())
        eager = {nm: QuotientSpace(s.Z, s.B) for nm, s in slots.items()}
        arrows = []
        for (n, m) in slots:
            nxt = (n + 1) % N if cyclic else n + 1
            if (n, m + 1) in slots:
                arrows.append(((n, m), (n, m + 1), lambda z: z))
            if m > 1 and (nxt, m - 1) in slots:
                arrows.append(((n, m), (nxt, m - 1), C.map(n).apply))
        assert arrows
        for nm, s in slots.items():
            assert s.dim_H == eager[nm].dim
            assert s.representatives == eager[nm].representatives()
        for src, tgt, image in arrows:
            want = quotient_map(eager[src], eager[tgt], image)
            assert slots[src].map_to(slots[tgt], image) == want, (src, tgt)


@pytest.mark.parametrize("cyclic", [False, True], ids=["bounded", "cyclic"])
def test_graded_complex_refuses_bad_nilpotency(cyclic):
    """Every complex is validated at construction: one whose d^N is not
    zero is refused there, naming the first degree it leaves."""
    one = ExactMatrix.identity(1, QQ)
    N = 3 if cyclic else 2
    maps = {n: one for n in range(N)}
    with pytest.raises(ValueError, match=rf"d\^{N} != 0 starting at degree 0"):
        GradedNComplex(N, QQ, {n: 1 for n in range(3)}, maps, cyclic=cyclic)


def test_only_a_checked_complex_defers_its_quotients():
    """Every complex is checked at construction, the pullback ``to_zgraded``
    truncated both ways too, so each builds a slot's quotient on its first
    read and no other."""
    C = random_graded_complex(QQ, 3, random.Random(47), cyclic=True)
    for H in (graded_homology(C), graded_homology(to_zgraded(C, 0, 8))):
        first = next(iter(H.slots))
        assert H[first].representatives is not None
        assert [nm for nm, s in H.slots.items() if "quotient" in vars(s)] == [first]


def test_extend_builds_the_read_quotient_only(monkeypatch):
    """``gauge.extend`` certifies Lemma 12 at level 0: it builds one
    quotient, the one by H_I, and no graded homology.  The lazy quotients of
    the Lemma-12 homology are checked by the oracle in ``test_gauge``."""
    from ncomplex import gauge, graded, linalg

    built, homologies = [], []
    init = linalg.QuotientSpace.__init__

    def counting_init(self, Z, B):
        built.append(self)
        init(self, Z, B)

    def spy(C):
        homologies.append(C)
        return graded_homology(C)

    monkeypatch.setattr(linalg.QuotientSpace, "__init__", counting_init)
    monkeypatch.setattr(gauge, "graded_homology", spy)
    monkeypatch.setattr(graded, "graded_homology", spy)
    rng = random.Random(5)
    for N in (3, 4, 5):
        f = make_cyclotomic(2 * N)
        G = gauge.random_gauge_instance(f, N, rng, hmax=12)
        del built[:]
        gauge.extend(G)
        assert len(built) == 1 and spans_subspace(built[0].B, G.HI)
    assert homologies == []


def _lines(dims):
    """The graded 3-complex with dims {degree: dim} and zero maps between
    consecutive degrees."""
    maps = {n: ExactMatrix.zeros(dims[n + 1], dims[n], QQ)
            for n in dims if n + 1 in dims}
    return GradedNComplex(3, QQ, dims, maps)


@pytest.mark.parametrize("E, F, G", [
    ({0: 1}, {0: 1, 1: 1}, {}),
    ({0: 1, 1: 1}, {0: 1}, {}),
    ({0: 1}, {0: 1}, {1: 2}),
], ids=["F-beyond-E-and-G", "E-beyond-F", "G-beyond-F"])
def test_graded_ses_refuses_a_degree_without_maps(E, F, G):
    """A degree that carries no phi and psi must be empty in E, F and G,
    whichever of the three complexes has it: otherwise the sequence is not
    exact there, and ``validate`` names the degree."""
    ses = GradedSES(_lines(E), _lines(F), _lines(G),
                    {0: ExactMatrix.identity(1, QQ)},
                    {0: ExactMatrix.zeros(G.get(0, 0), 1, QQ)})
    with pytest.raises(ValueError, match="at degree 1$"):
        ses.validate()


def test_graded_ses_validates_once(monkeypatch):
    """A successful ``GradedSES.validate`` is remembered across ``les_check``
    calls; a failed one raises every time."""
    from ncomplex import graded

    ses = random_graded_ses(QQ, 3, random.Random(3))
    fresh = GradedSES(ses.E, ses.F, ses.G, ses.phi, ses.psi)
    calls = []
    monkeypatch.setattr(graded, "rank", lambda M: calls.append(1) or rank(M))
    assert les_check(fresh, 1, 0)["ok"]
    first = len(calls)
    assert first > 0
    assert les_check(fresh, 1, 0)["ok"] and len(calls) == first
    degree = next(n for n, M in ses.psi.items() if M.nrows)
    psi = {**ses.psi, degree: ses.psi[degree].scale(0)}
    broken = GradedSES(ses.E, ses.F, ses.G, ses.phi, psi)
    for _ in range(2):
        with pytest.raises(ValueError, match="psi not surjective"):
            les_check(broken, 1, 0)
