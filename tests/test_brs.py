import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex.fields import QQ, accumulate, rat
from ncomplex.graded import WindowError
from ncomplex.cosimplicial import AlgebraData, chevalley_eilenberg
from ncomplex.graded import graded_homology
from ncomplex.linalg import ExactMatrix, image_basis, kernel_basis
from ncomplex import brs
from ncomplex.brs import (
    Derivation,
    GhostComplex,
    LongitudinalComplex,
    PolyConstraintSystem,
    abelian_system,
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
from ncomplex.young import monomials
from helpers import (
    filtered_cohomology_dim,
    ghost_mul,
    leibniz_apply,
    oracle_derivation_apply,
    oracle_koszul_image,
    random_poly,
    sl2,
)


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


SHIPPED = {"abelian": (abelian_system, 5), "twisted": (twisted_nonabelian_system, 6),
           "quadratic": (quadratic_toy_system, 5)}


@cache
def shipped_tower(name):
    system, deg_max = SHIPPED[name]
    return delta_tower(GhostComplex(system()), deg_max=deg_max)


def ghost_terms(draw, K, coeffs, max_size):
    """A term dict of up to ``max_size`` random basis keys of K."""
    def subset(n):
        return tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))))

    terms = {}
    for _ in range(draw(st.integers(1, max_size))):
        mono = tuple(draw(st.lists(st.integers(0, 3), min_size=K.D, max_size=K.D)))
        terms[(subset(K.m), mono, subset(K.mp))] = draw(coeffs)
    return terms


@pytest.mark.parametrize("name,r", [("abelian", 0), ("abelian", 1),
                                    ("twisted", 0), ("twisted", 1), ("twisted", 2),
                                    ("quadratic", 0), ("quadratic", 1)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_spliced_antiderivation_matches_leibniz_expansion(name, r, data):
    """Antiderivation.apply, which splices each generator-image term into
    the key, adds into ``out`` what the generic Leibniz expansion (each
    image multiplied in between its left and right factors) adds, with
    coefficients 1 and other rationals alike; adding the image of -elem
    restores ``out``."""
    K = shipped_tower(name)
    assert sorted(K.deltas) == ([0, 1, 2] if name == "twisted" else [0, 1])
    delta = K.deltas[r]
    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    elem = ghost_terms(data.draw, K, st.one_of(st.just(rat(1)), nonzero), 6)
    before = ghost_terms(data.draw, K, nonzero, 3)
    out = dict(before)
    assert delta.apply(elem, out) is out
    assert out == leibniz_apply(delta, elem, dict(before))
    delta.apply({k: -v for k, v in elem.items()}, out)
    assert out == before


def test_theorem4_refuses_a_window_past_the_longitudinal_budget():
    """The abelian longitudinal complex stores degrees <= deg_max + 2 and
    its constant fields drop one degree, so wmax = deg_max + 2 would cut B
    off on that side alone."""
    assert theorem4_verify(abelian_system(), deg_max=2, wmax=3)["ok"]
    with pytest.raises(WindowError, match="past the stored 4"):
        theorem4_verify(abelian_system(), deg_max=2, wmax=4)
    with pytest.raises(ValueError, match="wmax must be >= 0"):
        theorem4_verify(abelian_system(), deg_max=2, wmax=-1)


def test_longitudinal_cohomology_refuses_degrees_past_deg_max():
    L = LongitudinalComplex(abelian_system(), 4)
    assert L.cohomology_dims(3) == [1, 0, 0]
    with pytest.raises(WindowError):
        L.cohomology_dims(4)


@pytest.mark.parametrize("make", [abelian_system, twisted_nonabelian_system,
                                  quadratic_toy_system])
def test_theorem4_builds_only_the_longitudinal_degrees_it_reads(make, monkeypatch):
    """Each quotient Poly_w / (u)_w is built the first time degree w is
    read, so the top of the stored budget deg_max + 2 * raise, which the
    default window never reads, is never built."""
    built, read, stored = [], set(), []
    quotient, init = LongitudinalComplex.quotient, LongitudinalComplex.__init__
    quotient_space = brs.QuotientSpace

    def reading(self, w):
        read.add(w)
        return quotient(self, w)

    def storing(self, system, deg_max):
        stored.append(deg_max)
        init(self, system, deg_max)

    def building(full, ideal):
        built.append(ideal)
        return quotient_space(full, ideal)

    monkeypatch.setattr(LongitudinalComplex, "quotient", reading)
    monkeypatch.setattr(LongitudinalComplex, "__init__", storing)
    monkeypatch.setattr(brs, "QuotientSpace", building)
    assert theorem4_verify(make(), deg_max=6)["ok"]
    (top,) = stored
    assert read == set(range(len(built))) and max(read) < top


@pytest.mark.parametrize("seed", range(3))
def test_koszul_delta0_matches_the_remove_at_loop(seed):
    """The Koszul delta_0, the ghost complex's antiderivation of the pi
    images, against removing each pi_S[k] with the sign (-1)^k."""
    rng = random.Random(seed)
    constraints = [random_poly(rng, 3, rng.randint(1, 2)) or variable(3, 0)
                   for _ in range(3)]
    delta0 = brs._koszul_delta0(constraints, 0)
    for n in range(4):
        for pis in itertools.combinations(range(3), n):
            for mono in monomials(3, 2):
                assert (delta0.apply({(pis, mono, ()): rat(1)})
                        == oracle_koszul_image(constraints, pis, mono))


@pytest.mark.parametrize("seed", range(4))
def test_derivation_apply_matches_the_monomial_loop(seed):
    rng = random.Random(seed)
    xi = Derivation(3, [random_poly(rng, 3, rng.randint(0, 2)) for _ in range(3)])
    poly = {**random_poly(rng, 3, 3), **random_poly(rng, 3, 1)}
    assert xi.apply(poly) == oracle_derivation_apply(xi, poly)


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


# fields on Q[x_0, x_1] as combinations {(p, q): c} of E_pq = x_p d/dx_q:
# gl2 is all four, sl2 is e, f and h = E_00 - E_11, in the basis order of
# helpers.sl2 ([e, f] = h)
_GL2 = [{(0, 1): 1}, {(1, 0): 1}, {(0, 0): 1}, {(1, 1): 1}]
_SL2 = [{(0, 1): 1}, {(1, 0): 1}, {(0, 0): 1, (1, 1): -1}]


def _vector_field(combo):
    coeffs = [{}, {}]
    for (p, q), c in combo.items():
        coeffs[q] = poly_add(coeffs[q], variable(2, p), scale=rat(c))
    return Derivation(2, coeffs)


def _gl2():
    """[E_pq, E_rs] = delta_qr E_ps - delta_sp E_rq on the basis of _GL2."""
    pos = {next(iter(c)): i for i, c in enumerate(_GL2)}
    structure = [[{} for _ in pos] for _ in pos]
    for (p, q), i in pos.items():
        for (r, s), j in pos.items():
            if q == r:
                accumulate(structure[i][j], pos[(p, s)], rat(1))
            if s == p:
                accumulate(structure[i][j], pos[(r, q)], rat(-1))
    return AlgebraData(QQ, structure, lie=True)


def _chevalley_eilenberg_dims(g, basis, deg_max):
    """sum over w <= deg_max - 1 of dim H^n(g, Poly_w), with E_pq acting on
    x^m as m_q x^(m - e_q + e_p)."""
    dims = dict.fromkeys(range(g.dim + 1), 0)
    for w in range(deg_max):
        monos = [(a, w - a) for a in range(w + 1)]
        pos = {m: i for i, m in enumerate(monos)}
        mats = []
        for combo in basis:
            cols = [{} for _ in monos]
            for (p, q), c in combo.items():
                for j, m in enumerate(monos):
                    if m[q]:
                        image = list(m)
                        image[q] -= 1
                        image[p] += 1
                        accumulate(cols[j], pos[tuple(image)], rat(c * m[q]))
            mats.append(ExactMatrix.from_columns(cols, len(monos), QQ))
        H = graded_homology(chevalley_eilenberg(g, mats, len(monos), g.dim), ms=[1])
        for n in dims:
            dims[n] += H[(n, 1)].dim_H
    return dims


@pytest.mark.parametrize("name", ["gl2", "sl2"])
def test_derivation_forms_match_chevalley_eilenberg(name):
    """A closed family whose brackets are sums of fields ([e, f] = h_1 - h_2
    in gl2) gets its structure constants solved, and the longitudinal forms
    agree with the Chevalley-Eilenberg cohomology of the span acting on
    each Poly_w."""
    basis, g = {"gl2": (_GL2, _gl2()), "sl2": (_SL2, sl2(QQ))}[name]
    fields = [_vector_field(c) for c in basis]
    dims = derivation_forms_cohomology(2, fields, range(g.dim + 1), 4)
    assert dims == _chevalley_eilenberg_dims(g, basis, 4)
    assert dims == {"gl2": {0: 1, 1: 1, 2: 0, 3: 1, 4: 1},
                    "sl2": {0: 1, 1: 0, 2: 0, 3: 1}}[name]


def test_derivation_forms_refuse_an_open_family():
    """[e, f] = h_1 - h_2 is outside the span of e and f."""
    fields = [_vector_field(c) for c in _GL2[:2]]
    with pytest.raises(ValueError, match="not closed"):
        derivation_forms_cohomology(2, fields, range(2), 3)


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


# four odd inputs on Q[x0, x1] with the constraint x1: no fields (m' = 0),
# two equal constant fields, two equal fields x0 d/dx0 whose structure
# constants C^0_01 = -C^1_01 cancel on them, and a duplicated constraint
def no_fields_system():
    return PolyConstraintSystem(2, [variable(2, 1)], [], {}, {})


def equal_constant_fields_system():
    dx0 = Derivation(2, [poly_const(2, 1), {}])
    return PolyConstraintSystem(2, [variable(2, 1)], [dx0, dx0], {}, {})


def equal_fields_with_structure_system():
    xdx0 = Derivation(2, [variable(2, 0), {}])
    one, minus = poly_const(2, 1), poly_const(2, -1)
    structure = {(0, 0, 1): one, (1, 0, 1): minus, (0, 1, 0): minus, (1, 1, 0): one}
    return PolyConstraintSystem(2, [variable(2, 1)], [xdx0, xdx0], structure, {})


def duplicated_constraint_system():
    dx0 = Derivation(2, [poly_const(2, 1), {}])
    return PolyConstraintSystem(2, [variable(2, 1)] * 2, [dx0], {}, {})


ODD = [(no_fields_system, 6), (equal_constant_fields_system, 6),
       (equal_fields_with_structure_system, 6), (duplicated_constraint_system, 6)]


@pytest.mark.parametrize("system,deg_max", [(abelian_system, 5),
                                            (twisted_nonabelian_system, 6),
                                            (quadratic_toy_system, 5), *ODD])
def test_leibniz_rows_match_the_spliced_and_generic_images(system, deg_max):
    """Every row written by Leibniz in the monomial, divided by its
    denominator, is the image ``apply_total`` splices and the generic
    Leibniz expansion multiplies out, entry for entry, on every ghost key
    that theorem4_verify reads at wmax 4."""
    K = delta_tower(GhostComplex(system()), deg_max=deg_max)
    down = brs._max_poly_drop(K)
    row = brs._leibniz_rows(K)
    keys = [key for n in range(-1, K.mp + 1)
            for key in K.ghost_basis(n, 4 + down)]
    for key in keys:
        ints, den = row(key)
        want = K.apply_total({key: rat(1)})
        assert {k: Fraction(v, den) for k, v in ints.items()} == want
        generic = {}
        for delta in K.deltas.values():
            leibniz_apply(delta, {key: rat(1)}, generic)
        assert generic == want


@pytest.mark.parametrize("system,deg_max", [(abelian_system, 5),
                                            (twisted_nonabelian_system, 6),
                                            (quadratic_toy_system, 5), *ODD])
def test_filtered_cohomology_dim_matches_basis_oracle(system, deg_max):
    """Each H^n of both sides of Theorem 4, at wmax 0..4, against the
    cohomology from explicit kernel and image bases and against the rule of
    two ranks with a per-key image (``helpers.filtered_cohomology_dim``)."""
    S = system()
    K = delta_tower(GhostComplex(S), deg_max=deg_max)
    up, down = brs._max_poly_raise(K), brs._max_poly_drop(K)
    L = LongitudinalComplex(S, deg_max + 2 * up)

    def ghost_d(key):
        return K.apply_total({key: rat(1)})

    seen = set()
    for wmax in range(5):
        got = (brs.brs_cohomology(K, wmax), L.cohomology_dims(wmax))
        for n in range(S.m_prime + 1):
            cases = [
                (ghost_d, K.ghost_basis(n, wmax), K.ghost_basis(n + 1, wmax + up),
                 K.ghost_basis(n - 1, wmax + down)),
                (L.differential, L.basis(n, wmax), L.basis(n + 1, L.deg_max),
                 L.basis(n - 1, wmax + down)),
            ]
            for dims, args in zip(got, cases):
                want = _oracle_cohomology_dim(*args)
                assert dims[n] == filtered_cohomology_dim(*args) == want
                seen.add(want)
    assert len(seen) > 1


@pytest.mark.parametrize("system,details", [
    (no_fields_system, {"H^0(<= 4)": (5, 5)}),
    (equal_constant_fields_system,
     {"H^0(<= 4)": (1, 1), "H^1(<= 4)": (1, 1), "H^2(<= 4)": (0, 0)}),
    (equal_fields_with_structure_system,
     {"H^0(<= 4)": (1, 1), "H^1(<= 4)": (1, 1), "H^2(<= 4)": (0, 0)}),
    (duplicated_constraint_system, {"H^0(<= 4)": (1, 1), "H^1(<= 4)": (0, 0)}),
])
def test_theorem4_on_odd_systems(system, details):
    """Degenerate inputs that the loader accepts: both sides agree, at the
    dimensions recorded from the two-rank rule."""
    rep = theorem4_verify(system(), deg_max=6)
    assert rep == {"ok": True, "details": details, "tower_orders": [0, 1]}


@pytest.mark.parametrize("system,deg_max,n_calls,details", [
    (abelian_system, 5, 75,
     {"H^0(<= 4)": (1, 1), "H^1(<= 4)": (0, 0), "H^2(<= 4)": (0, 0)}),
    (twisted_nonabelian_system, 6, 60,
     {"H^0(<= 4)": (1, 1), "H^1(<= 4)": (1, 1), "H^2(<= 4)": (0, 0)}),
])
def test_theorem4_images_only_the_word_keys(monkeypatch, system, deg_max, n_calls,
                                            details):
    """theorem4_verify runs ``apply_total`` only on the keys pi_S chi_T and
    pi_S x_i chi_T, each once: (1 + D) calls for each of the 15 word pairs
    (S, T) of ghost degree -1..2, whatever the window.  Its dimensions are
    those of brs_cohomology."""
    keys = []
    apply_total = GhostComplex.apply_total

    def counted(self, elem):
        keys.extend(elem)
        return apply_total(self, elem)

    monkeypatch.setattr(GhostComplex, "apply_total", counted)
    rep = theorem4_verify(system(), deg_max=deg_max, wmax=4)
    assert rep["details"] == details
    assert len(keys) == len(set(keys)) == n_calls
    assert all(sum(mono) <= 1 for _, mono, _ in keys)
    monkeypatch.undo()
    K = delta_tower(GhostComplex(system()), deg_max=deg_max)
    assert brs.brs_cohomology(K, 4) == [lhs for lhs, _ in details.values()]


@pytest.mark.parametrize("system,deg_max", [(abelian_system, 5),
                                            (twisted_nonabelian_system, 6)])
def test_theorem4_refuses_a_target_window_one_short(monkeypatch, system, deg_max):
    """With the largest degree raise taken one short, some image term falls
    past the enumerated target window, and that is an error naming the
    window, never a wrong dimension."""
    raise_ = brs._max_poly_raise
    monkeypatch.setattr(brs, "_max_poly_raise", lambda K: raise_(K) - 1)
    with pytest.raises(KeyError, match="outside the enumerated window of degree <="):
        theorem4_verify(system(), deg_max=deg_max, wmax=4)
