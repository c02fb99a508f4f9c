import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncomplex import ndiff
from ncomplex.fields import QQ, make_cyclotomic, rat
from ncomplex.linalg import (
    Echelon,
    EchelonSolver,
    ExactMatrix,
    QuotientSpace,
    Subspace,
    _split_vector,
    image_basis,
    kernel_basis,
    power_images,
    power_kernels,
    rank,
    span,
)
from ncomplex.ndiff import (
    HomologySlot,
    NDiffModule,
    ShortExactSequence,
    all_hexagons_check,
    block_module,
    conjugate_blocks,
    connecting_well_defined,
    green_tensor,
    hexagon_check,
    homology,
    homotopy_criterion_lemma3,
    homotopy_criterion_lemma4,
    induced_d,
    induced_i,
    multiplicities,
    proposition4_check,
    random_ndiff,
    random_ses,
    random_unimodular,
    ses_hexagon_check,
    stable_quotient,
    submodule,
)
from helpers import (
    dense_ndiff,
    from_int_rows,
    hexagon_cycles,
    oracle_all_hexagons,
    oracle_conjugate_blocks,
    link_rows,
    oracle_echelon_chain,
    oracle_image_chain,
    oracle_random_unimodular,
    oracle_ses_hexagons,
    quotient_map,
    ses_cycles,
    spans_subspace,
)


def test_construction_rejects_bad_nilpotency():
    """A module read from JSON is certified at load: ``from_json`` refuses a
    d with d^N != 0, which the constructor itself accepts."""
    obj = NDiffModule(3, ExactMatrix.identity(3, QQ)).to_json()
    with pytest.raises(ValueError, match=r"d\^3 != 0: not an 3-differential"):
        NDiffModule.from_json(obj)


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
        n = N + draw(st.integers(0, 1))
        return N, block_module(f, n, [n]).d
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
    the ranks of the explicit powers, read off the module's rank profile
    when it is certified and off the chain loop (``power_images``) always."""
    N, d = case
    ranks = [rank(_naive_power(d, m)) for m in range(N + 1)]
    assert [d.nrows] + [len(B.leads) for B in power_images(d, N)] == ranks
    E = NDiffModule(N, d)
    if ranks[-1]:
        with pytest.raises(ValueError, match=rf"d\^{N} != 0: not an {N}-differential"):
            E.rank_profile()
    else:
        assert E.rank_profile() == ranks


@st.composite
def chain_cases(draw):
    """(N, d) over Q and Q(zeta_3), Q(zeta_4), Q(zeta_5), Q(zeta_8): a
    conjugated Jordan sum with blocks up to N (d^N = 0, ``random_ndiff``) or
    with one block of size N + 1 (d^N != 0), scaled by a rational so that d
    has denominators."""
    f = draw(st.sampled_from([QQ] + [make_cyclotomic(M) for M in (3, 4, 5, 8)]))
    N = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 10))
    if draw(st.booleans()):
        d = random_ndiff(f, N, dim, rng)[0].d
    else:
        sizes = [N + 1] + [rng.randint(1, N + 1) for _ in range(draw(st.integers(0, 2)))]
        starts = [sum(sizes[:k]) for k in range(len(sizes))]
        J = ExactMatrix(sum(sizes), sum(sizes), f, {
            (i, i + 1): f.one for s, n in zip(starts, sizes) for i in range(s, s + n - 1)})
        P, Pinv = random_unimodular(J.nrows, f, rng)
        d = P @ J @ Pinv
    return N, d.scale(f.from_rat(draw(st.sampled_from([rat(1), rat(1, 2), rat(-2, 3)]))))


@given(chain_cases())
@settings(max_examples=120, deadline=None)
def test_image_chain_on_echelon_rows_matches_column_oracle(case):
    """Each link of the chain on echelon rows is an ``Echelon`` over d's
    field and dimension with the dimension and the span of the chain on
    kept columns (``oracle_image_chain``), its stored rows one per lead
    (over Q primitive integer rows).  The chain loop (``power_images``) is
    held to it for every d; the module's certificate raises exactly when
    the oracle's last link is nonzero, and otherwise the homology built on
    the ``span`` of the oracle's links has the same representatives, class
    maps and [i], [d] matrices."""
    N, d = case
    f = d.field
    E = NDiffModule(N, d)
    oracle = oracle_image_chain(E)
    chain = power_images(d, N)
    assert len(chain) == len(oracle) == N
    for B, T in zip(chain, oracle):
        assert (B.ops, B.limit) == (f, E.dim)
        assert spans_subspace(B, T)
        for c, (rc, rv) in B.leads.items():
            assert rc[0] == c and not any(map(f.is_zero, rv))
            if f is QQ:
                assert all(type(v) is int for v in rv) and math.gcd(*rv) == 1
    if oracle[-1].dim:
        with pytest.raises(ValueError, match=rf"d\^{N} != 0: not an {N}-differential"):
            E.image_chain()
        return
    slots = homology(E).slots
    want = {m: HomologySlot(s.Z, span(oracle[N - m - 1].basis))
            for m, s in slots.items()}
    for m, s in slots.items():
        assert s.representatives == want[m].representatives
        assert s.quotient.class_map == want[m].quotient.class_map
    arrows = [(m, m + 1, lambda z: z) for m in range(1, N - 1)]
    arrows += [(m + 1, m, d.apply) for m in range(1, N - 1)]
    for src, tgt, image in arrows:
        assert slots[src].map_to(slots[tgt], image) == want[src].map_to(want[tgt], image)


@given(st.one_of(chain_cases(), square_cases()))
@settings(max_examples=150, deadline=None)
def test_kernel_chain_matches_kernels_of_powers(case):
    """Link m of the kernel chain is ``kernel_basis`` of the explicit power
    d^m: the same basis matrix and the same positions.  The row identity
    needs no nilpotency, so the chain loop (``power_kernels``) is held to it
    on d with d^N != 0 (a Jordan block of size N + 1, arbitrary sparse d)
    too."""
    N, d = case
    chain = power_kernels(d, N - 1)
    assert len(chain) == N - 1
    for m, S in enumerate(chain, 1):
        K = kernel_basis(_naive_power(d, m))
        assert S.ambient_dim == K.ambient_dim == d.ncols
        assert S.basis == K.basis, m
        assert list(S.positions) == list(K.positions), m


def test_homology_forms_no_power(monkeypatch):
    """The homology, its quotients and every hexagon are built without a
    single ``NDiffModule.power``: the kernels come from the kernel chain."""
    calls = []
    power = NDiffModule.power
    monkeypatch.setattr(NDiffModule, "power",
                        lambda self, k: calls.append(k) or power(self, k))
    E, _ = random_ndiff(QQ, 5, 14, random.Random(35))
    H = homology(E)
    for slot in H.slots.values():
        slot.representatives
    assert all_hexagons_check(E)["ok"]
    assert calls == []


@given(st.one_of(chain_cases(), square_cases()))
@settings(max_examples=150, deadline=None)
def test_image_chain_matches_explicit_product_oracle(case):
    """Each link of the image chain on ``_power_echelons`` has the rows of
    the chain on explicit products d @ (link k's rows as columns)
    (``oracle_echelon_chain``), in lead order, on the chain loop
    (``power_images``) for every d; the module's chain is that loop's, and
    a d with d^N != 0 raises the certificate's error."""
    N, d = case
    E = NDiffModule(N, d)
    oracle = oracle_echelon_chain(E)
    chain = power_images(d, N)
    assert len(chain) == len(oracle) == N
    for k, (B, rows) in enumerate(zip(chain, oracle)):
        assert link_rows(B) == rows, k
    if oracle[-1]:
        with pytest.raises(ValueError, match=rf"d\^{N} != 0: not an {N}-differential"):
            E.image_chain()
    else:
        assert [link_rows(B) for B in E.image_chain()] == oracle


def test_image_chain_forms_no_product(monkeypatch):
    """Building a module and reading its image chain (its certificate) and
    rank profile multiply no two matrices: every link comes from the last one's
    echelon rows times d^T's rows."""
    calls = []
    matmul = ExactMatrix.__matmul__
    d = random_ndiff(QQ, 5, 14, random.Random(39))[0].d
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda A, B: calls.append(1) or matmul(A, B))
    E = NDiffModule(5, d)
    E.image_chain()
    assert E.rank_profile()[-1] == 0
    assert calls == []


@pytest.mark.parametrize("field, seed", [
    (QQ, 0), (QQ, 1), (make_cyclotomic(3), 2), (make_cyclotomic(3), 3),
], ids=["Q-0", "Q-1", "Q(zeta_3)-2", "Q(zeta_3)-3"])
def test_dense_modules(field, seed):
    """Block modules with blocks up to N conjugated by 10 n elementary
    operations (``dense_ndiff``): the image chain spans what the chain on
    kept columns spans and is the chain on explicit products, the kernel
    chain is ``kernel_basis`` of the explicit powers, the multiplicities are
    the block sizes, and every hexagon is exact."""
    rng = random.Random(seed)
    N, sizes = rng.randint(3, 5), []
    while sum(sizes) < 40:
        sizes.append(rng.randint(1, min(N, 40 - sum(sizes))))
    E, truth = dense_ndiff(field, N, sizes, rng)
    for B, T, rows in zip(E.image_chain(), oracle_image_chain(E), oracle_echelon_chain(E)):
        assert spans_subspace(B, T)
        assert link_rows(B) == rows
    for m, S in enumerate(E.kernel_chain(), 1):
        K = kernel_basis(_naive_power(E.d, m))
        assert S.basis == K.basis and list(S.positions) == list(K.positions), m
    assert multiplicities(E).counts == truth
    assert all_hexagons_check(E)["ok"]


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3), make_cyclotomic(8)],
                         ids=["Q", "Q(zeta_3)", "Q(zeta_8)"])
def test_generators_match_scalar_oracles(field):
    """``random_unimodular`` and ``conjugate_blocks`` on int rows build the
    matrices of their scalar oracles and leave ``rng`` where the oracles
    leave it, for n = 0..40 and nops at the default, n + 4
    (``random_graded_complex``) and 10 n (``dense_ndiff``); P P^-1 = I, and
    a seeded split cache is the split of the entries."""
    for n in range(41):
        sizes, rest = [], n
        while rest:
            sizes.append(random.Random(rest).randint(1, min(5, rest)))
            rest -= sizes[-1]
        for nops in (None, n + 4, 10 * n):
            rng, ref = random.Random(n), random.Random(n)
            P, Pinv = random_unimodular(n, field, rng, nops)
            assert (P, Pinv) == oracle_random_unimodular(n, field, ref, nops)
            assert rng.getstate() == ref.getstate()
            assert P @ Pinv == ExactMatrix.identity(n, field)
            d = conjugate_blocks(field, sizes, rng, nops)
            assert d == oracle_conjugate_blocks(field, sizes, ref, nops), (n, nops)
            assert rng.getstate() == ref.getstate()
            for M in (P, Pinv, d):
                fresh = ExactMatrix(n, n, field, dict(M.entries))
                assert M.split_columns() == fresh.split_columns()


def test_malformed_block_sizes_are_refused():
    """A Jordan block size below 1 and a negative matrix size are refused
    with a ValueError that names them, before any draw, and so is a block
    above N in ``block_module``."""
    rng = random.Random(0)
    state = rng.getstate()
    for sizes in ([-1], [3, -2], [2, 0]):
        with pytest.raises(ValueError, match=f"block size {sizes[-1]} is below 1"):
            block_module(QQ, 3, sizes)
        with pytest.raises(ValueError, match=f"block size {sizes[-1]} is below 1"):
            conjugate_blocks(QQ, sizes, rng)
    with pytest.raises(ValueError, match="matrix size -1 is negative"):
        random_unimodular(-1, QQ, rng)
    assert rng.getstate() == state
    for sizes in ([4], [2, 5, 1]):
        with pytest.raises(ValueError,
                           match=f"Jordan block size {max(sizes)} is above N = 3"):
            block_module(QQ, 3, sizes)


def test_jordan_block_profile():
    E = block_module(QQ, 3, [3])
    assert E.rank_profile() == [3, 2, 1, 0]
    H = homology(E)
    assert H.dims() == {1: 0, 2: 0}


def test_homology_d3_plus_d1():
    E = block_module(QQ, 3, [3, 1])
    H = homology(E)
    assert H.dims() == {1: 1, 2: 1}
    # representative of H_(1) is a d-cycle independent of B_(1)
    slot = H[1]
    rep = slot.representatives.columns()[0]
    assert not E.d.apply(rep)


def test_homology_zero_differential():
    E = NDiffModule(4, ExactMatrix.zeros(5, 5, QQ).scale(QQ.one))
    H = homology(E)
    assert all(v == 5 for v in H.dims().values())


def test_homology_slot_checks_dimensions():
    """Every slot, graded ones included, checks dim H = dim Z - dim B when
    it builds its quotient: an ``Echelon`` B whose stored rows are
    dependent (e_0 under two leads) breaks the count."""
    Z = Subspace.full(3, QQ)
    e0 = {0: QQ.one}
    slot = HomologySlot(Z, span(ExactMatrix.from_columns([e0], 3, QQ)))
    assert (slot.dim_Z, slot.dim_B, slot.dim_H) == (3, 1, 2)
    assert slot.quotient.dim == 2
    twice = Echelon(QQ, 3, {0: ([0], [1]), 1: ([0], [1])})
    with pytest.raises(AssertionError, match="dim H != dim Z - dim B"):
        HomologySlot(Z, twice).quotient


def test_lazy_slot_checks_dimensions_on_first_read():
    """A slot reports dim Z - dim B at once, builds no quotient until one
    is read, and runs the dimension check then."""
    Z = Subspace.full(3, QQ)
    twice = Echelon(QQ, 3, {0: ([0], [1]), 1: ([0], [1])})
    slot = HomologySlot(Z, twice)
    assert "quotient" not in vars(slot) and slot.dim_H == 1
    with pytest.raises(AssertionError, match="dim H != dim Z - dim B"):
        slot.representatives


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Q(zeta_3)"])
def test_lazy_slots_match_eager_slots(field):
    """No slot builds its quotient up front; each matches a
    ``QuotientSpace`` built at once on the same Z and B in dimension,
    representatives and the [i] and [d] matrices."""
    rng = random.Random(41)
    for _ in range(4):
        N = rng.randint(3, 5)
        E, _ = random_ndiff(field, N, rng.randint(6, 12), rng)
        slots = homology(E).slots
        assert not any("quotient" in vars(s) for s in slots.values())
        eager = {m: QuotientSpace(s.Z, s.B) for m, s in slots.items()}
        for m, s in slots.items():
            assert s.dim_H == eager[m].dim
            assert s.representatives == eager[m].representatives()
        arrows = [(m, m + 1, lambda z: z) for m in range(1, N - 1)]
        arrows += [(m + 1, m, E.d.apply) for m in range(1, N - 1)]
        for src, tgt, image in arrows:
            want = quotient_map(eager[src], eager[tgt], image)
            assert slots[src].map_to(slots[tgt], image) == want, (src, tgt)


@pytest.mark.parametrize("N, d", [
    (2, block_module(QQ, 3, [3]).d),
    (3, block_module(QQ, 4, [4]).d),
    (3, ExactMatrix.identity(3, QQ)),
], ids=["J3-N2", "J4-N3", "identity"])
def test_uncertified_module_is_refused_where_read(N, d):
    """A module with d^N != 0 builds, but every dimension read goes
    through the image chain: each read, on a fresh module, raises the
    certificate's ValueError and reports no dimension."""
    reads = [NDiffModule.rank_profile, NDiffModule.homology_dims,
             multiplicities, homology]
    for read in reads:
        with pytest.raises(ValueError, match=rf"d\^{N} != 0: not an {N}-differential"):
            read(NDiffModule(N, d))


def test_ses_validates_once(monkeypatch):
    """A successful ``validate`` is remembered: two hexagon checks on a fresh
    sequence rank phi and psi once each.  A failed one raises every time."""
    from ncomplex import ndiff

    ses = random_ses(QQ, 3, random.Random(7))
    fresh = ShortExactSequence(ses.E, ses.F, ses.G, ses.phi, ses.psi)
    broken = ShortExactSequence(ses.E, ses.F, ses.G, ses.phi, ses.psi.scale(0))
    ranked = []

    def counting(M):
        ranked.append(M is fresh.phi or M is fresh.psi)
        return rank(M)

    monkeypatch.setattr(ndiff, "rank", counting)
    assert ses_hexagon_check(fresh)["ok"] and ses_hexagon_check(fresh)["ok"]
    assert ranked.count(True) == 2
    for _ in range(2):
        with pytest.raises(ValueError, match="psi is not surjective"):
            ses_hexagon_check(broken)


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
    E = block_module(QQ, N, [N])
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
    E = block_module(f, 3, [3])
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
    E1 = block_module(QQ, 2, [2])
    E2 = block_module(QQ, 2, [2])
    T = green_tensor(E1, E2)
    assert T.N == 3 and T.dim == 4
    assert not T.power(2).is_zero()
    assert T.power(3).is_zero()
    # iterated: parafermion of order 3
    T3 = green_tensor(T, block_module(QQ, 2, [2]))
    assert T3.N == 4 and T3.power(4).is_zero() and not T3.power(3).is_zero()


def test_green_tensor_zero_side():
    E1 = block_module(QQ, 3, [3])
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
    phi = from_int_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]], QQ
    )
    psi = from_int_rows(
        [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], QQ
    )
    from ncomplex.ndiff import ShortExactSequence

    ses = ShortExactSequence(E, F, G, phi, psi)
    ses.validate()
    for m in (1, 2):
        assert ses.homology_maps(m)[2].is_zero()
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
    from ncomplex.ndiff import ShortExactSequence

    ses = ShortExactSequence(E, F, G, S.basis, proj)
    ses.validate()
    assert all(v == 0 for v in homology(F).dims().values())
    partial = ses.homology_maps(1)[2]
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
            assert connecting_well_defined(ses, m)


def test_module_json_roundtrip():
    E = block_module(QQ, 3, [3, 2])
    obj = E.to_json()
    E2 = NDiffModule.from_json(obj)
    assert E2.N == E.N and E2.d == E.d


# -- the connecting map on integer numerators -----------------------------------


def _reference_connect(ses, z, m, shift=None):
    """The connecting map as a chain of scalar solves and applies."""
    f = ses.F.field
    y = EchelonSolver(ses.psi).solve(z)
    if shift is not None:
        for j, v in shift.items():
            s = f.add(y.get(j, f.zero), v)
            if f.is_zero(s):
                y.pop(j, None)
            else:
                y[j] = s
    x = EchelonSolver(ses.phi).solve(ses.F.power(m).apply(y))
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
    """connect_lift on any lift, shifted by a random kernel vector, equals
    the scalar chain; the basis certificate agrees with the random re-lift
    oracle, which draws from its own rng."""
    rng = random.Random(500 + seed)
    N = rng.choice((3, 4, 5))
    ses = random_ses(QQ, N, rng)
    f = QQ
    K = kernel_basis(ses.psi).basis
    for m in range(1, N):
        chain = ses.connecting(m)
        for z in homology(ses.G)[m].representatives.columns():
            x = chain(z)
            assert x == _reference_connect(ses, z, m)
            assert all(type(v) is type(rat(0)) for v in x.values())
            y, Dy = chain.lift(z)
            for _ in range(3):
                shift = K.apply({j: rat(rng.randint(-5, 5), rng.randint(1, 6))
                                 for j in range(K.ncols)})
                lifted = {j: f.join(n, Dy) for j, n in y.items()}
                for j, v in shift.items():
                    lifted[j] = f.add(lifted.get(j, f.zero), v)
                got = ses.connect_lift(*_split_vector(lifted, f), m)
                assert got == _reference_connect(ses, z, m, shift)
        ref = random.Random(700 + seed)
        assert connecting_well_defined(ses, m) == _reference_well_defined(
            ses, m, ref, trials=3)


def _broken_sequence():
    """F = D_3 (N = 3), E = span(e0, e1) with phi its inclusion but E's d
    set to zero, G = F/E: phi is no chain map and ``validate`` is skipped.
    A lift of the generator of H_(1)(G) shifted by the last kernel column
    e1 connects to a class moved by [e0] != 0 in H_(2)(E) = E."""
    F = block_module(QQ, 3, [3])
    E = NDiffModule(3, ExactMatrix.zeros(2, 2, QQ))
    G = NDiffModule(3, ExactMatrix.zeros(1, 1, QQ))
    phi = ExactMatrix.from_columns([{0: QQ.one}, {1: QQ.one}], 3, QQ)
    psi = ExactMatrix.from_rows([[QQ.zero, QQ.zero, QQ.one]], QQ)
    return ShortExactSequence(E, F, G, phi, psi)


def test_connecting_certificate_rejects_broken_sequence():
    """Only the last kernel column of psi moves the class, and only at
    m = 1; the certificate and the random re-lift oracle both reject."""
    ses = _broken_sequence()
    assert [dict(c) for c in ses.ker_psi.basis.columns()] == [
        {0: QQ.one}, {1: QQ.one}]
    assert homology(ses.G)[1].dim_H == 1
    assert not connecting_well_defined(ses, 1)
    assert not _reference_well_defined(ses, 1, random.Random(1), trials=10)
    assert connecting_well_defined(ses, 2)


def test_connecting_certificate_makes_no_draws(no_draws):
    ses = random_ses(QQ, 4, random.Random(34))
    assert ses.ker_psi.dim > 0
    for m in range(1, 4):
        assert connecting_well_defined(ses, m, no_draws, trials=10)
    assert not connecting_well_defined(_broken_sequence(), 1, no_draws)


# -- the cached homology arrows -------------------------------------------------


@pytest.fixture()
def map_to_calls(monkeypatch):
    """Counts ``HomologySlot.map_to`` calls, one per induced matrix built."""
    calls = []
    original = HomologySlot.map_to

    def counting(self, target, image):
        calls.append(1)
        return original(self, target, image)

    monkeypatch.setattr(HomologySlot, "map_to", counting)
    return calls


def test_hexagons_build_each_step_once(map_to_calls):
    """All hexagons of an N = 5 module need only the 2(N-2) steps [i] and [d];
    every power is composed from them, and a second check builds nothing."""
    E = block_module(QQ, 5, [5, 2, 2, 3, 1])
    assert all_hexagons_check(E)["ok"]
    assert len(map_to_calls) == 2 * (5 - 2)
    assert all_hexagons_check(E)["ok"]
    assert len(map_to_calls) == 2 * (5 - 2)


def test_ses_hexagons_build_each_map_once(map_to_calls):
    """phi_k, psi_k and partial_k are built once per k, shared by the
    hexagons at n and N - n; the well-definedness certificate lifts no
    representative and makes one phi solve per kernel column."""
    rng = random.Random(32)
    N = 4
    ses = random_ses(QQ, N, rng)
    assert ses_hexagon_check(ses)["ok"]
    assert len(map_to_calls) == 3 * (N - 1)
    ses.homology_maps(1)  # read again: served from the cache, nothing rebuilt
    assert len(map_to_calls) == 3 * (N - 1)
    assert ses.ker_psi.dim > 0
    solves = {"psi": 0, "phi": 0}
    for name in solves:
        solver = getattr(ses, f"{name}_solver")

        def counting(b, D, name=name, solver=solver):
            solves[name] += 1
            return type(solver).solve_split(solver, b, D)

        solver.solve_split = counting
    for m in range(1, N):
        assert connecting_well_defined(ses, m)
        assert solves == {"psi": 0, "phi": m * ses.ker_psi.dim}


@pytest.mark.parametrize("field", [QQ, make_cyclotomic(3)], ids=["Q", "Q(zeta_3)"])
def test_cached_arrows_match_fresh_module(field):
    """Every cached [i]^k and [d]^k equals the map induced by the inclusion
    and by d^k, built directly on a fresh copy of the module."""
    E, _ = random_ndiff(field, 5, 14, random.Random(33))
    assert all_hexagons_check(E)["ok"]
    arrows = homology(E).arrows
    assert {("i", 1, 3), ("d", 1, 3)} <= arrows.keys()
    fresh = NDiffModule.from_json(E.to_json())
    H = homology(fresh)
    for (kind, m, k), M in arrows.items():
        if kind == "i":
            ref = H[m].map_to(H[m + k], lambda z: z)
        else:
            ref = H[m + k].map_to(H[m], fresh.power(k).apply)
        assert M == ref, (kind, m, k)


def test_hexagon_check_reads_the_cache():
    """A cached step overwritten with zero makes the hexagon inexact: the
    check reads the cache and still detects a broken map."""
    E = block_module(QQ, 5, [5, 2, 2])
    assert hexagon_check(block_module(QQ, 5, [5, 2, 2]), 1, 1)["ok"]
    H = homology(E)
    H.arrows[("i", 1, 1)] = ExactMatrix.zeros(H[2].dim_H, H[1].dim_H, QQ)
    assert hexagon_check(E, 1, 1)["failed_vertices"]


# -- each vertex decided once ----------------------------------------------------


def _zero_like(M):
    return ExactMatrix.zeros(M.nrows, M.ncols, M.field)


@given(N=st.integers(3, 7), seed=st.integers(0, 2**32 - 1),
       dim=st.integers(1, 14), tamper=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
@example(N=6, seed=35, dim=14, tamper=5)   # the fixed hexagon (2, 2)
@example(N=4, seed=36, dim=10, tamper=2)
def test_all_hexagons_match_the_per_hexagon_oracle(N, seed, dim, tamper):
    """``all_hexagons_check`` reports what deciding every vertex of every
    hexagon afresh reports, order included: on the intact module, then
    with one cached arrow overwritten by zero, so that the failures land in
    the hexagons that share it turned; and ``hexagon_check`` of each (ell,
    m) is that hexagon's report."""
    E, _ = random_ndiff(QQ, N, dim, random.Random(seed))
    assert all_hexagons_check(E) == oracle_all_hexagons(E)
    arrows = homology(E).arrows
    key = sorted(arrows)[tamper % len(arrows)]
    arrows[key] = _zero_like(arrows[key])
    got = all_hexagons_check(E)
    assert got == oracle_all_hexagons(E), key
    for report in got["hexagons"]:
        assert hexagon_check(E, report["ell"], report["m"]) == report


@given(N=st.integers(3, 7), seed=st.integers(0, 2**32 - 1),
       tamper=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
@example(N=4, seed=37, tamper=4)   # the cycle at n = 2 turned into itself
@example(N=6, seed=38, tamper=7)
def test_ses_hexagons_match_the_per_cycle_oracle(N, seed, tamper):
    """``ses_hexagon_check`` reports what deciding every vertex of every
    Proposition-3 cycle afresh reports, order included, on the intact
    sequence and with one of phi_k, psi_k, partial_k overwritten by zero."""
    ses = random_ses(QQ, N, random.Random(seed))
    assert ses_hexagon_check(ses) == oracle_ses_hexagons(ses)
    k, j = divmod(tamper % (3 * (N - 1)), 3)
    maps = list(ses.homology_maps(k + 1))
    maps[j] = _zero_like(maps[j])
    ses._homology_maps[k + 1] = tuple(maps)
    assert ses_hexagon_check(ses) == oracle_ses_hexagons(ses), (k + 1, j)


@pytest.fixture()
def work(monkeypatch):
    """The composites and ranks a check forms, by the ids of their maps."""
    formed = {"composites": [], "ranks": []}
    matmul, rank_ = ExactMatrix.__matmul__, ndiff.rank

    def counting_matmul(a, b):
        formed["composites"].append((id(a), id(b)))
        return matmul(a, b)

    def counting_rank(M):
        formed["ranks"].append(id(M))
        return rank_(M)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(ndiff, "rank", counting_rank)
    return formed


def _cycle_work(cycles):
    """The distinct composites (outgoing after incoming) and the maps of
    ``cycles``, each a list of maps entering the vertices in turn."""
    composites = {(id(maps[(v + 1) % len(maps)]), id(maps[v]))
                  for maps in cycles for v in range(len(maps))}
    return composites, {id(M) for maps in cycles for M in maps}


@pytest.mark.parametrize("N", [4, 5, 6, 7])
def test_hexagons_form_each_composite_once(N, work):
    """With the arrows built, one ``all_hexagons_check`` forms each distinct
    composite once and ranks each arrow once; N = 6 has the hexagon (2, 2)
    that its own turn fixes.  A second call decides everything again."""
    E, _ = random_ndiff(QQ, N, 16, random.Random(39 + N))
    cycles = [maps for *_, maps in hexagon_cycles(E)]
    composites, maps = _cycle_work(cycles)
    assert 6 * len(cycles) > len(composites)
    for _ in range(2):
        work["composites"].clear()
        work["ranks"].clear()
        assert all_hexagons_check(E)["ok"]
        assert sorted(work["composites"]) == sorted(composites)
        assert Counter(work["ranks"]) == Counter(maps)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_ses_hexagons_form_each_composite_once(N, work):
    """The cycle at N - n is the cycle at n turned by three, and at N = 4
    the cycle at n = 2 is its own turn: one ``ses_hexagon_check`` forms
    each of the 3 (N - 1) distinct composites once and ranks each map
    once."""
    ses = random_ses(QQ, N, random.Random(40 + N))
    ses_hexagon_check(ses)  # builds the maps and the validation
    composites, maps = _cycle_work([maps for *_, maps in ses_cycles(ses)])
    assert len(composites) == 3 * (N - 1)
    work["composites"].clear()
    work["ranks"].clear()
    assert ses_hexagon_check(ses)["ok"]
    assert sorted(work["composites"]) == sorted(composites)
    assert Counter(work["ranks"]) == Counter(maps)
