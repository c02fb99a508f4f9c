import itertools

import pytest

from ncomplex.fields import QQ, rat
from ncomplex.linalg import ExactMatrix, image_basis, kernel_basis
from ncomplex import brs
from ncomplex.brs import (
    Derivation,
    GhostComplex,
    LongitudinalComplex,
    PolyConstraintSystem,
    abelian_system,
    brs_cohomology,
    delta_tower,
    derivation_forms_cohomology,
    koszul_homology,
    poly_add,
    poly_const,
    poly_mul,
    quadratic_toy_system,
    theorem4_verify,
    twisted_nonabelian_system,
    variable,
)
from helpers import ghost_mul


def test_poly_arithmetic():
    x = variable(2, 0)
    y = variable(2, 1)
    xy = poly_mul(x, y)
    assert xy == {(1, 1): rat(1)}
    assert poly_add(xy, xy, scale=rat(-1)) == {}
    d = Derivation(2, [y, {}])  # y d/dx
    assert d.apply(poly_mul(x, x)) == {(1, 1): rat(2)}


def test_derivation_bracket():
    # [d/dx, x d/dx] = d/dx
    D = 2
    d1 = Derivation(D, [poly_const(D, 1), {}])
    d2 = Derivation(D, [variable(D, 0), {}])
    br = d1.bracket(d2)
    assert br.coeffs == d1.coeffs


def test_system_validation_rejects_bad_witnesses():
    D = 2
    z = variable(D, 1)
    xi = Derivation(D, [poly_const(D, 1), {}])
    bad = PolyConstraintSystem(D, [z], [xi], {}, {(0, 0, 0): poly_const(D, 1)})
    with pytest.raises(ValueError, match="tangency"):
        bad.validate()


def test_system_validation_rejects_empty_constraints():
    D = 2
    xi = Derivation(D, [poly_const(D, 1), {}])
    with pytest.raises(ValueError, match="constraints"):
        PolyConstraintSystem(D, [], [xi], {}, {}).validate()


def test_ghost_mul_signs():
    pi0 = {((0,), (0,), ()): rat(1)}
    pi1 = {((1,), (0,), ()): rat(1)}
    chi0 = {((), (0,), (0,)): rat(1)}
    # pi_0 pi_1 = -pi_1 pi_0
    a = ghost_mul(pi0, pi1)
    b = ghost_mul(pi1, pi0)
    assert not poly_add(a, b) and a
    # chi anticommutes with pi: (chi)(pi) = -(pi)(chi) as elements
    ab = ghost_mul(chi0, pi0)
    ba = ghost_mul(pi0, chi0)
    assert not poly_add(ab, ba)
    # squares vanish
    assert not ghost_mul(pi0, pi0)
    assert not ghost_mul(chi0, chi0)


def leibniz_holds(K, r, gens):
    for (k1, _, g1), (k2, _, g2) in itertools.product(gens, repeat=2):
        ab = ghost_mul(g1, g2)
        parity = rat(-1 if k1 in ("pi", "chi") else 1)
        lhs = K.apply(r, ab)
        rhs = poly_add(ghost_mul(K.apply(r, g1), g2),
                       ghost_mul(g1, K.apply(r, g2)), scale=parity)
        if lhs != rhs:
            return False
    return True


def test_antiderivation_leibniz():
    for system in (abelian_system(), twisted_nonabelian_system()):
        K = GhostComplex(system)
        gens = K.generators()
        for r in (0, 1):
            assert leibniz_holds(K, r, gens)


def test_delta0_squares_and_anticommutator():
    for system in (abelian_system(), twisted_nonabelian_system(),
                   quadratic_toy_system()):
        K = GhostComplex(system)
        for n in (0, 1):
            for _, _, g in K.generators():
                assert not K.anticommutator_sum(n, g)


def test_abelian_tower_trivial():
    K = GhostComplex(abelian_system())
    for _, _, g in K.generators():
        assert not K.anticommutator_sum(2, g)
    delta_tower(K)
    assert sorted(K.deltas) == [0, 1]


def test_twisted_tower_needs_delta2():
    K = GhostComplex(twisted_nonabelian_system())
    assert any(K.anticommutator_sum(2, g) for _, _, g in K.generators())
    delta_tower(K)
    assert 2 in K.deltas
    assert K.check_tower_identities()["ok"]
    # delta^2 = 0 as a total map on a sample of filtered elements
    for _, _, g in K.generators():
        assert not K.apply_total(K.apply_total(g))


def test_quadratic_toy_structural_termination():
    # m' = 1: delta_r = 0 for r >= 2 structurally
    K = GhostComplex(quadratic_toy_system())
    delta_tower(K)
    assert sorted(K.deltas) == [0, 1]
    assert K.check_tower_identities()["ok"]


def test_leibniz_on_installed_tower():
    K = GhostComplex(twisted_nonabelian_system())
    delta_tower(K)
    gens = K.generators()
    for r in sorted(K.deltas):
        assert leibniz_holds(K, r, gens)


def test_koszul_single_linear():
    dims = koszul_homology([variable(3, 0)], 3, 4)
    # H^0 per degree: polynomials in the two remaining variables
    assert [dims[(0, w)] for w in range(5)] == [1, 2, 3, 4, 5]
    assert all(dims[(-1, w)] == 0 for w in range(5))


def test_koszul_regular_pair():
    dims = koszul_homology([variable(4, 0), variable(4, 1)], 4, 3)
    assert [dims[(0, w)] for w in range(4)] == [1, 2, 3, 4]
    assert all(v == 0 for (n, w), v in dims.items() if n != 0)


def test_koszul_non_regular_reported():
    dims = koszul_homology([variable(3, 0), variable(3, 0)], 3, 3)
    assert any(dims[(-1, w)] > 0 for w in range(4))


def test_lemma9_bigraded_acyclicity():
    # H^(i,j)(delta_0) = 0 for i != 0 and = (Poly/(u)) ox Lambda^j chi at i=0,
    # checked through dimension counts per polynomial degree
    S = abelian_system()
    K = GhostComplex(S)
    dims = koszul_homology(S.constraints, S.D, 3)
    # i = 0 row: Poly/(p1,p2) = Q[x1,x2]
    assert [dims[(0, w)] for w in range(4)] == [1, 2, 3, 4]
    assert all(v == 0 for (n, w), v in dims.items() if n != 0)


def test_theorem4_abelian():
    rep = theorem4_verify(abelian_system(), deg_max=5, wmax=4)
    assert rep["ok"]
    # H^0 = invariant functions on V = constants; Poincare along the leaves
    assert rep["details"]["H^0(<= 4)"] == (1, 1)
    assert rep["details"]["H^1(<= 4)"] == (0, 0)


def test_theorem4_twisted_nonabelian():
    rep = theorem4_verify(twisted_nonabelian_system(), deg_max=6, wmax=4)
    assert rep["ok"]
    assert rep["tower_orders"] == [0, 1, 2]


def test_theorem4_quadratic_toy():
    rep = theorem4_verify(quadratic_toy_system(), deg_max=5, wmax=3)
    assert rep["ok"]


def test_derivation_forms_full_de_rham():
    D = 2
    fields = [
        Derivation(D, [poly_const(D, 1), {}]),
        Derivation(D, [{}, poly_const(D, 1)]),
    ]
    dims = derivation_forms_cohomology(D, fields, range(0, 3), 5)
    assert dims == {0: 1, 1: 0, 2: 0}


def test_derivation_forms_partial_foliation():
    D = 2
    fields = [Derivation(D, [poly_const(D, 1), {}])]
    dims = derivation_forms_cohomology(D, fields, range(0, 2), 5)
    # H^0 = Q[y] up to the window degree; H^1 = 0
    assert dims[0] == 5 and dims[1] == 0


def test_derivation_forms_empty_family():
    dims = derivation_forms_cohomology(2, [], range(0, 1), 3)
    # d = 0: everything survives in degree 0
    assert dims[0] == sum(w + 1 for w in range(3))


def test_system_json_roundtrip():
    S = twisted_nonabelian_system()
    obj = S.to_json()
    S2 = PolyConstraintSystem.from_json(obj)
    S2.validate()
    assert S2.to_json() == obj


def test_theorem4_quadratic_toy_pinned():
    """Dimensions recorded from explicit kernel and image bases."""
    rep = theorem4_verify(quadratic_toy_system(), deg_max=5)
    assert rep == {"ok": True, "details": {"H^0(<= 1)": (1, 1), "H^1(<= 1)": (1, 1)},
                   "tower_orders": [0, 1]}
    rep = theorem4_verify(quadratic_toy_system(), deg_max=5, wmax=3)
    assert rep["details"] == {"H^0(<= 3)": (4, 4), "H^1(<= 3)": (4, 4)}


@pytest.mark.parametrize(
    "system,dims",
    [
        (abelian_system, {-2: [0] * 5, -1: [0] * 5, 0: [1, 2, 3, 4, 5]}),
        (twisted_nonabelian_system, {-2: [0] * 5, -1: [0] * 5, 0: [1] * 5}),
        (quadratic_toy_system, {-1: [0] * 5, 0: [1, 4, 9, 16, 25]}),
    ],
)
def test_koszul_homology_pinned(system, dims):
    S = system()
    got = {}
    for (n, w), v in sorted(koszul_homology(S.constraints, S.D, 4).items()):
        got.setdefault(n, []).append(v)
    assert got == dims


def _oracle_cohomology_dim(differential, src, tgt, below):
    """dim Z - dim B from explicit bases: Z the kernel into tgt, B the image
    of the combinations of ``below`` whose terms outside ``src`` cancel."""
    def matrix(keys, index, grow):
        ent = {}
        for col, key in enumerate(keys):
            for k2, v in differential(key).items():
                if k2 not in index:
                    assert grow, f"{k2} outside the target window"
                    index[k2] = len(index)
                ent[(index[k2], col)] = v
        return ExactMatrix(len(index), len(keys), QQ, ent)

    Z = kernel_basis(matrix(src, {k: i for i, k in enumerate(tgt)}, False))
    Mlow = matrix(below, {k: i for i, k in enumerate(src)}, True)
    n = len(src)
    overflow = ExactMatrix(
        Mlow.nrows - n, Mlow.ncols, QQ,
        {(r - n, c): v for (r, c), v in Mlow.entries.items() if r >= n},
    )
    cols = [{r: v for r, v in Mlow.apply(c).items() if r < n}
            for c in kernel_basis(overflow).basis.columns()]
    return Z.dim - image_basis(ExactMatrix.from_columns(cols, n, QQ)).dim


@pytest.mark.parametrize("system,deg_max", [(abelian_system, 5),
                                            (twisted_nonabelian_system, 6)])
def test_filtered_cohomology_dim_matches_basis_oracle(system, deg_max):
    S = system()
    K = delta_tower(GhostComplex(S), deg_max=deg_max)
    up, down = brs._max_poly_raise(K), brs._max_poly_drop(K)
    L = LongitudinalComplex(S, deg_max + 2 * up)

    def ghost_d(key):
        return K.apply_total({key: rat(1)})

    seen = set()
    for n in range(S.m_prime + 1):
        for wmax in (2, 4):
            cases = [
                (ghost_d, K.ghost_basis(n, wmax), K.ghost_basis(n + 1, wmax + up),
                 K.ghost_basis(n - 1, wmax + down)),
                (L.differential, L.basis(n, wmax), L.basis(n + 1, L.deg_max),
                 L.basis(n - 1, wmax + 1) if n >= 1 else []),
            ]
            for args in cases:
                want = _oracle_cohomology_dim(*args)
                assert brs._filtered_cohomology_dim(*args) == want
                seen.add(want)
    assert len(seen) > 1


# the distinct ghost keys imaged, counted when every ghost degree imaged
# its keys anew (2,534 and 1,169 calls)
@pytest.mark.parametrize("system,deg_max,n_keys,details", [
    (abelian_system, 5, 1834,
     {"H^0(<= 4)": (1, 1), "H^1(<= 4)": (0, 0), "H^2(<= 4)": (0, 0)}),
    (twisted_nonabelian_system, 6, 819,
     {"H^0(<= 4)": (1, 1), "H^1(<= 4)": (1, 1), "H^2(<= 4)": (0, 0)}),
])
def test_theorem4_images_each_ghost_key_once(monkeypatch, system, deg_max, n_keys,
                                             details):
    """theorem4_verify images every ghost basis key once over all ghost
    degrees, and its dimensions are those of brs_cohomology per degree
    with every image computed afresh."""
    keys = []
    apply_total = GhostComplex.apply_total

    def counted(self, elem):
        keys.extend(elem)
        return apply_total(self, elem)

    monkeypatch.setattr(GhostComplex, "apply_total", counted)
    rep = theorem4_verify(system(), deg_max=deg_max, wmax=4)
    assert rep["details"] == details
    assert len(keys) == len(set(keys)) == n_keys
    monkeypatch.undo()
    K = delta_tower(GhostComplex(system()), deg_max=deg_max)

    def image(key):
        return K.apply_total({key: rat(1)})

    assert [brs_cohomology(K, n, 4, image) for n in range(3)] == [
        lhs for lhs, _ in details.values()]
