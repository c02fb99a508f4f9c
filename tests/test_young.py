import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncomplex.fields import QQ, R_ZERO, accumulate, rat
from ncomplex.linalg import EchelonSolver, ExactMatrix
from ncomplex.young import (
    PolyTensorField,
    SymmetrySpace,
    Symmetrizer,
    YoungDiagram,
    _dual_pair,
    _tableau_read,
    _transition,
    basis_field,
    differential,
    divergence,
    maximal_diagram,
    nonassociativity_witness,
    omega_space,
    poincare_verify,
    potential_solve,
    random_divergence_free,
    spin2_middle_proportional,
    spin_sequence_check,
    weight_complex,
    weyl_dim,
    y_product,
)
from helpers import (
    oracle_random_divergence_free,
    oracle_riemann_dual,
    oracle_symmetry_coords,
    oracle_tau,
    oracle_transition,
    random_poly,
    tuple_index,
)


def test_maximal_diagram():
    assert maximal_diagram(2, 3).rows == (1, 1, 1)
    assert maximal_diagram(3, 4).rows == (2, 2)
    assert maximal_diagram(4, 5).rows == (3, 2)
    assert maximal_diagram(3, 0).rows == ()


def test_symmetrizer_single_row_and_column():
    # single row p=2: symmetric part; e1 ox e2 -> (e1 ox e2 + e2 ox e1)/2
    sp = omega_space(3, 2, 2)  # shape (2): one row
    proj = sp.projector.apply({(0, 1): rat(1)})
    assert proj == {(0, 1): rat(1, 2), (1, 0): rat(1, 2)}
    # single column p=2 (N=2): antisymmetric part
    sp2 = omega_space(2, 2, 2)
    proj2 = sp2.projector.apply({(0, 1): rat(1)})
    assert proj2 == {(0, 1): rat(1, 2), (1, 0): rat(-1, 2)}


def test_symmetrizer_idempotent():
    import itertools

    for (N, D, p) in ((3, 2, 3), (3, 3, 4), (4, 2, 4)):
        sp = omega_space(N, D, p)
        for t in itertools.islice(itertools.product(range(D), repeat=p), 8):
            once = sp.projector.apply({t: rat(1)})
            twice = sp.projector.apply(once)
            assert once == twice


def test_symmetry_space_is_one_elimination(elimination_counts):
    """A symmetry space is a ``Subspace`` of the D^p tensor space read at the
    semistandard rows S: one EchelonSolver of the dim x dim matrix B_S, and
    no elimination of D^p rows.  A solve gives the coordinates, and one
    sparse combination of the basis off S checks them."""
    # antisymmetric 2-tensors over D = 2: (0, 1) is the one semistandard
    # filling of a column of height 2, so its projection is basis tensor 0
    sp = SymmetrySpace(YoungDiagram((1, 1)), 2)
    assert elimination_counts == {"solvers": 1, "row_echelon": 1}
    assert sp.dim == 1 and sp.positions == [(0, 1)]
    assert sp.basis == [{(0, 1): rat(1, 2), (1, 0): rat(-1, 2)}]
    space = sp._space
    assert space.ambient_dim == 4 and space.positions == [1]
    M = space._read[1].M
    assert (M.nrows, M.ncols, M.entries) == (1, 1, {(0, 0): rat(1, 2)})
    assert sp.coords(sp.basis[0]) == {0: rat(1)}
    assert sp.coords({(0, 1): rat(3), (1, 0): rat(-3)}) == {0: rat(6)}
    with pytest.raises(ValueError, match="symmetry type"):
        sp.coords({(0, 1): rat(1)})
    assert elimination_counts == {"solvers": 1, "row_echelon": 1}
    # a transition reads its target through the target's one B_S solver:
    # building the row (2) and the hook (2, 1) over D = 2 is all it eliminates
    omega_space.cache_clear()
    _transition.cache_clear()
    elimination_counts.update(solvers=0, row_echelon=0)
    for T in _transition(3, 2, 2):
        assert (T.nrows, T.ncols) == (2, 3)
    assert elimination_counts == {"solvers": 2, "row_echelon": 2}
    assert omega_space(3, 2, 3).projection_reader.ncols == 8
    assert elimination_counts == {"solvers": 2, "row_echelon": 2}
    # every space reads at the base-D rows of its semistandard tuples
    for N, D, p in ((2, 3, 2), (3, 2, 3), (3, 3, 4), (4, 2, 5)):
        sp = omega_space(N, D, p)
        assert sp._space.ambient_dim == D ** p
        assert sp._space.positions == [tuple_index(t, D) for t in sp.positions]
        assert sp._space.positions == sorted(sp._space.positions)


def test_coords_refuses_what_agrees_only_at_the_semistandard_positions():
    """``coords`` solves at the semistandard positions S alone, so its sparse
    combination must refuse a tensor that B_S cannot tell from a member: one
    supported off S only, and a basis combination with an entry changed,
    removed or added off S."""
    anti = omega_space(2, 2, 2)  # the column (1, 1) over D = 2: S = [(0, 1)]
    assert anti.coords({}) == {}
    with pytest.raises(ValueError, match="symmetry type"):
        anti.coords({(1, 0): rat(1)})
    sp = omega_space(3, 2, 3)  # the hook (2, 1) over D = 2
    assert sp.dim == 2 and sp.positions == [(0, 0, 1), (0, 1, 1)]
    member = {}
    for s, c in enumerate((rat(2), rat(-3, 5))):
        for t, v in sp.basis[s].items():
            accumulate(member, t, c * v)
    assert sp.coords(member) == {0: rat(2), 1: rat(-3, 5)}
    off = next(t for t in member if t not in sp.positions)
    changed = {**member, off: member[off] + 1}
    removed = {t: v for t, v in member.items() if t != off}
    added = {**member, (1, 1, 1): rat(1)}
    for tensor in (changed, removed, added):
        assert {t: tensor[t] for t in sp.positions} == {
            t: member[t] for t in sp.positions}
        with pytest.raises(ValueError, match="symmetry type"):
            sp.coords(tensor)


def test_spaces_up_to_the_top_degree_n4_d4():
    """Every symmetry space of Theorem 3 at N = 4, D = 4, up to the top
    degree (N - 1) D = 12, where the space is one-dimensional: each build
    certifies rank B_S = weyl_dim and Y^2 = cY.  About 12 s on a 2-CPU host,
    nearly all of it the Y^2 = cY check at p = 11 and 12."""
    dims = [omega_space(4, 4, p).dim for p in range(13)]
    assert dims == [weyl_dim(maximal_diagram(4, p), 4) for p in range(13)]
    assert dims[12] == 1


def test_shape_22_dim_over_d2():
    sp = omega_space(3, 2, 4)  # shape (2,2) over D=2
    assert sp.dim == 1 == weyl_dim(YoungDiagram((2, 2)), 2)


@pytest.mark.parametrize("N,D", [(2, 3), (3, 3), (3, 4), (4, 2)])
def test_dims_match_weyl(N, D):
    for p in range(min((N - 1) * D + 2, 7)):
        assert omega_space(N, D, p).dim == weyl_dim(maximal_diagram(N, p), D)


def test_weight_complex_nilpotent():
    # construction validates d^N = 0 on every window; exercise a few shapes
    for (N, D, w) in ((2, 3, 4), (3, 3, 5), (4, 2, 5), (3, 4, 4)):
        weight_complex(N, D, w)


def test_differential_weight_conservation():
    fld = basis_field(3, 3, 1, (2, 0, 0), 0)
    dfld = differential(fld)
    assert dfld.p == 2 and dfld.wpoly == 1
    assert dfld.weight == fld.weight
    # constants die
    const = basis_field(3, 3, 2, (0, 0, 0), 1)
    assert differential(const).is_zero()
    # out of the top degree (N-1)D = 2 the image is the zero field
    top = differential(basis_field(2, 2, 2, (1, 0), 0))
    assert (top.p, top.wpoly) == (3, 0) and top.is_zero()


def test_n2_is_de_rham():
    # classical polynomial Poincare lemma
    for k in (1,):
        rep = poincare_verify(2, 3, 1, 5)
        assert rep["ok"]
        assert rep["nonzero_offgrid"] == []  # everything is on-grid for N=2


def test_spin2_gradient_form():
    # N=3, D=3: d on a linear vector field is the symmetrized gradient
    fld = basis_field(3, 3, 1, (1, 0, 0), 0)  # x^1 (dx^1-type)
    dfld = differential(fld)
    raw = dfld.raw_tensor_poly()
    # d(x e_0)_(mu nu) proportional to delta contributions: symmetric in mu nu
    for mono, ten in raw.items():
        for (a, b), v in ten.items():
            assert ten.get((b, a)) == v


def test_poincare_n3_d3():
    for k in (1, 2):
        rep = poincare_verify(3, 3, k, 5)
        assert rep["ok"]
        assert rep["h0_total"] == rep["h0_expected_total"]
    # nonzero class off the (N-1)N grid exists (paper's nontriviality)
    rep = poincare_verify(3, 3, 1, 4)
    assert rep["nonzero_offgrid"]


def test_poincare_n4_d2():
    for k in (1, 2, 3):
        assert poincare_verify(4, 2, k, 5)["ok"]


def test_h0_counts_low_degree_polynomials():
    # dim H^0_(2) at weight w: 1 at w=0, 3 at w=1, 0 beyond (N=3, D=3)
    rep = poincare_verify(3, 3, 2, 3)
    assert rep["ok"]
    dims = rep["dims"]
    assert dims.get("w=0,p=0") == 1
    assert dims.get("w=1,p=0") == 3
    assert "w=2,p=0" not in dims


def test_spin_sequences():
    assert spin_sequence_check(1, 4, 5)["ok"]
    assert spin_sequence_check(2, 4, 4)["ok"]
    assert spin_sequence_check(3, 3, 6)["ok"]


@pytest.mark.parametrize("S,D,w_max", [(3, 3, 4), (3, 4, 5), (1, 1, 5)])
def test_spin_sequence_refuses_a_range_below_2S(S, D, w_max):
    """No weight up to w_max reaches degree 2S (w_max < 2S, or the top
    degree S D < 2S when D = 1): nothing would be checked, so no verdict."""
    with pytest.raises(ValueError, match="nothing to check"):
        spin_sequence_check(S, D, w_max)


@pytest.mark.parametrize("w_max", [-1, -5])
def test_poincare_refuses_a_negative_window(w_max):
    """Below weight 0 there is no weight to check: no verdict, not ``ok``."""
    with pytest.raises(ValueError, match="nothing to check"):
        poincare_verify(3, 3, 1, w_max)


def test_spin2_middle_is_d_squared():
    rep = spin2_middle_proportional(4, 4)
    assert rep["ok"]
    assert rat(6) == rat(int(rep["constant"]))  # frozen: our Y gives c = 6


@pytest.mark.parametrize("D,w_max", [(3, 3), (1, 6)])
def test_spin2_middle_refuses_an_empty_comparison(D, w_max):
    """Below weight 4, or with Omega^4 = 0 (D = 1), there is no d^2 to
    compare: that is no verdict, not a failed one."""
    with pytest.raises(ValueError, match="nothing to compare"):
        spin2_middle_proportional(D, w_max)


def test_y_product_wedge_for_n2():
    # N = 2: the product is the wedge product (associative)
    a = basis_field(2, 3, 1, (0, 0, 0), 0)
    b = basis_field(2, 3, 1, (0, 0, 0), 1)
    c = basis_field(2, 3, 1, (0, 0, 0), 2)
    ab_c = y_product(y_product(a, b), c)
    a_bc = y_product(a, y_product(b, c))
    assert ab_c.coords == a_bc.coords
    assert not ab_c.is_zero()
    # anticommutative
    ba = y_product(b, a)
    assert y_product(a, b).coords == {k: -v for k, v in ba.coords.items()}


def test_y_product_function_action():
    # degree-0 factor acts by multiplication
    f = PolyTensorField(3, 3, 0, 1, {((1, 0, 0), 0): rat(2)})
    b = basis_field(3, 3, 1, (0, 1, 0), 1)
    fb = y_product(f, b)
    assert fb.coords == {((1, 1, 0), 1): rat(2)}


def test_nonassociativity_witness_n3():
    assert nonassociativity_witness(3, 2, 0) is not None


def test_divergence_free_generator():
    rng = random.Random(3)
    T = random_divergence_free(rng)
    assert any(T.values())
    assert all(not p for p in divergence(T))
    for (m, n), poly in T.items():
        assert T.get((n, m)) == poly
        assert all(sum(mono) == 2 for mono in poly)


@pytest.mark.parametrize("seed", range(4))
def test_double_dual_matches_the_eps_loops(seed):
    """``_dual_pair`` against the explicit eps loops it replaced: the random
    T = dd(eps eps h), the dual tau of T read in tableau order, and the
    dual R of a random (not symmetric) rho."""
    T = random_divergence_free(random.Random(seed))
    assert T == oracle_random_divergence_free(random.Random(seed))
    assert _tableau_read(_dual_pair(T)) == oracle_tau(T)
    rng = random.Random(seed)
    rho = {(a, b): random_poly(rng, 3, rng.randint(0, 3))
           for a in range(3) for b in range(3)}
    assert _dual_pair(rho) == oracle_riemann_dual(rho)


def test_potential_solve_roundtrip():
    rng = random.Random(11)
    for _ in range(3):
        T = random_divergence_free(rng)
        out = potential_solve(T, 2)  # raises on any exactness failure
        assert out["R"]


def test_potential_solve_constant():
    T = {(i, i): {(0, 0, 0): rat(1)} for i in range(3)}
    out = potential_solve(T, 0)
    assert out["R"]


def test_potential_solve_zero():
    assert potential_solve({}, 2)["R"] == {}


def test_potential_solve_rejects_bad_input():
    bad = {(0, 1): {(0, 0, 0): rat(1)}}  # not symmetric
    with pytest.raises(ValueError):
        potential_solve(bad, 0)
    # symmetric but not divergence-free: T^{00} = x
    bad2 = {(0, 0): {(1, 0, 0): rat(1)}}
    with pytest.raises(ValueError):
        potential_solve(bad2, 1)
    # an entry of degree 0 where degree 1 was declared
    with pytest.raises(ValueError, match="homogeneous"):
        potential_solve({(0, 0): {(0, 0, 0): rat(1)}}, 1)


def test_symmetrizer_apply_api():
    out = Symmetrizer(YoungDiagram((2,)), 2).apply({(0, 1): rat(1)})
    assert out == {(0, 1): rat(1, 2), (1, 0): rat(1, 2)}


def test_nilpotency_full_grid():
    # d^N = 0 for every N <= 4, D <= 4 and weight <= 6: weight_complex
    # validates every length-N composite at construction
    for N in (2, 3, 4):
        for D in (1, 2, 3, 4):
            for w in range(7):
                weight_complex(N, D, w)


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "N,D,w_max,basis_sha,maps_sha",
    [
        (3, 3, 6, "6f7b2146217664c62d784fba3ed1e2f57dd5d16a940f56ffc585e0493375dc2d",
         "8e58e5d4e3f1fdbaa53266e01f67d391962f242397637c18ead2c3c9c84557ec"),
        (4, 2, 5, "34ef147a41919699d66fc5483442f034d687e6c6f4eb2c301edd0feef74a78c1",
         "edc0e334f1f03d94778b3bdafeefebfd685a662b857d665dfba32af0413158fc"),
        (2, 4, 5, "bb0038d69ccff240a2a4dc9a9f600afca7b5a43ef182d9f5e3284c732a73dc8f",
         "ce2f7479ce0b05af0481265efb9d293827dbcfdb3c8b9a2ce18d26001558f7c3"),
        (3, 4, 5, "12c0fecd27f882d569dacfef79d16171bd62b97be4b5001c696ffdf2d89b8af6",
         "81579fe10588c9f66da3a540f012d7a3bc06acc1e7db1bd4015564df52a759aa"),
    ],
    ids=["N3-D3", "N4-D2", "N2-D4", "N3-D4"],
)
def test_golden_bases_and_maps(N, D, w_max, basis_sha, maps_sha):
    """The symmetry-space bases and the maps d_p of every weight complex that
    criteria 7 (N=3, D=3 and N=4, D=2), 8 (N=2, 3 over D=4) and 9 (N=3, D=3
    at weight 6) build.  The pins fix the basis rule (the projected
    semistandard unit tensors, in enumeration order, which are the leftmost
    independent projected row-sorted unit tensors) and the row-major layout
    of every d_p."""
    bases = [
        [sorted([list(t), str(v)] for t, v in b.items())
         for b in omega_space(N, D, p).basis]
        for p in range(min(w_max, (N - 1) * D) + 1)
    ]
    maps = []
    for w in range(w_max + 1):
        C = weight_complex(N, D, w)
        maps.append([C.maps[p].to_json() for p in sorted(C.maps)])
    assert _sha(bases) == basis_sha
    assert _sha(maps) == maps_sha


def _product_perms(diagram, signed):
    """The product of the row groups of ``diagram`` (of its column groups,
    with signs, when ``signed``): every permutation of the positions that
    fixes each group setwise, as a lookup tuple, and its sign."""
    starts = itertools.accumulate((0,) + diagram.rows)
    groups = [list(range(s, s + r)) for s, r in zip(starts, diagram.rows)]
    if signed:
        groups = [[row[c] for row in groups if len(row) > c]
                  for c in range(diagram.ncols)]
    perms, signs = [tuple(range(diagram.cells))], [1]
    for group in groups:
        new_perms, new_signs = [], []
        for gperm in itertools.permutations(group):
            inversions = sum(a > b for a, b in itertools.combinations(gperm, 2))
            sgn = -1 if signed and inversions % 2 else 1
            for base, bs in zip(perms, signs):
                arr = list(base)
                for src, dst in zip(group, gperm):
                    arr[src] = base[dst]
                new_perms.append(tuple(arr))
                new_signs.append(bs * sgn)
        perms, signs = new_perms, new_signs
    return perms, signs


def _fraction_apply_raw(Y, tensor):
    """The symmetrizer summed on rationals over the product of the row groups
    and then of the column groups: row-symmetrize into a middle dict that
    keeps zero sums, then column-antisymmetrize its nonzero entries."""
    row_perms, _ = _product_perms(Y.diagram, signed=False)
    col_perms, col_signs = _product_perms(Y.diagram, signed=True)
    mid = {}
    for t, v in tensor.items():
        for perm in row_perms:
            u = tuple(t[i] for i in perm)
            mid[u] = mid.get(u, R_ZERO) + v
    out = {}
    for t, v in mid.items():
        if not v:
            continue
        for perm, sgn in zip(col_perms, col_signs):
            accumulate(out, tuple(t[i] for i in perm), v if sgn > 0 else -v)
    return out


@st.composite
def symmetrizer_cases(draw):
    """A small diagram and dimension, and a tensor of rationals over few
    denominators; with ``cancel``, each entry is paired with minus itself at
    a row-permuted key, so that middle sums cancel."""
    rows = draw(st.sampled_from([(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1),
                                 (2, 2), (3, 1), (2, 1, 1)]))
    D = draw(st.integers(1, 3))
    p = sum(rows)
    scalars = st.builds(rat, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    keys = st.tuples(*[st.integers(0, D - 1)] * p)
    tensor = draw(st.dictionaries(keys, scalars, max_size=6))
    Y = Symmetrizer(YoungDiagram(rows), D)
    if draw(st.booleans()):
        for t, v in list(tensor.items()):
            perm = draw(st.sampled_from(_product_perms(Y.diagram, signed=False)[0]))
            tensor.setdefault(tuple(t[i] for i in perm), -v)
    return Y, tensor


@given(symmetrizer_cases())
@example((Symmetrizer(YoungDiagram((2,)), 2), {}))
@example((Symmetrizer(YoungDiagram((2,)), 2), {(0, 1): rat(1, 3), (1, 0): rat(-1, 3)}))
@example((Symmetrizer(YoungDiagram((1, 1)), 2), {(1, 1): rat(5, 2)}))
@example((Symmetrizer(YoungDiagram((2, 1)), 2),
          {(0, 0, 1): rat(1, 2), (0, 1, 0): rat(1, 2), (1, 0, 0): rat(-1, 3)}))
@settings(max_examples=150, deadline=None)
def test_symmetrizer_integer_sums_match_rational_loop(case):
    """``apply_raw`` sums integer numerators one group at a time: the same
    values as the loop over rationals and the product of the groups."""
    Y, tensor = case
    got = Y.apply_raw(tensor)
    assert got == _fraction_apply_raw(Y, tensor)
    assert all(v for v in got.values())


@pytest.mark.parametrize("rows,D", [((2, 1), 3), ((2, 2), 2), ((3, 1), 2), ((2, 1, 1), 3)])
def test_transpose_and_projection_reader(rows, D):
    """``apply_raw`` with ``transpose`` is the transpose of the symmetrizer:
    <Y^T e_t, e_u> = <e_t, Y e_u> at every pair of positions.  And the
    ``projection_reader`` R reads Y x in coordinates: R x = coords(Y x) for
    each unit tensor and a random tensor x."""
    sp = SymmetrySpace(YoungDiagram(rows), D)
    Y, p = sp.projector, sp.diagram.cells
    units = list(itertools.product(range(D), repeat=p))
    images = {u: Y.apply_raw({u: rat(1)}) for u in units}
    for t in units:
        col = Y.apply_raw({t: rat(1)}, transpose=True)
        assert col == {u: images[u][t] for u in units if t in images[u]}, t
    rng = random.Random(len(units))
    xs = [{u: rat(1)} for u in units] + [
        {u: rat(rng.randint(-5, 5), rng.randint(1, 4)) for u in units}]
    for x in xs:
        assert sp.projection_reader.apply(sp._rows(x)) == sp.coords(Y.apply(x)), x


def _all_fillings_basis(space):
    """The basis rule before semistandard fillings: the projections of all
    row-sorted unit tensors, in enumeration order, kept at the pivot columns
    of one elimination, i.e. the leftmost independent ones."""
    D, diagram = space.D, space.diagram
    if len(diagram.rows) > D:
        return []
    per_row = [list(itertools.combinations_with_replacement(range(D), r))
               for r in diagram.rows]
    images = [space.projector.apply({sum(combo, ()): rat(1)})
              for combo in itertools.product(*per_row)]
    M = ExactMatrix.from_columns(
        [{tuple_index(u, D): v for u, v in img.items()} for img in images],
        D**diagram.cells, QQ,
    )
    return [images[j] for j in EchelonSolver(M).pivots]


def _searched_constant(Y):
    """The c of Y^2 = cY, found by search before the hook-length formula: on
    the first unit tensor with a nonzero image, checked on that whole image;
    None when every image is zero."""
    for t in itertools.product(range(Y.D), repeat=Y.p):
        img = Y.apply_raw({t: rat(1)})
        if img:
            twice = Y.apply_raw(img)
            key = next(iter(img))
            c = twice[key] / img[key]
            assert twice == {u: c * v for u, v in img.items()}
            return c
    return None


@pytest.mark.parametrize(
    "N,D", [(N, D) for N in range(2, 6) for D in range(1, 5)],
    ids=[f"N{N}-D{D}" for N in range(2, 6) for D in range(1, 5)],
)
def test_closed_forms_match_the_searches(N, D):
    """On every symmetry space of N = 2..5 over D = 1..4 with at most 8 cells
    (99 in all): the projected semistandard fillings are the all-fillings
    pivot basis, in order; 1/norm is the searched Y^2 = cY constant; and the
    grouped ``apply_raw`` matches the product of the groups.  Every T_mu
    between these spaces (at N = 4, D = 4: from p = 0..7) equals
    ``oracle_transition``, the column-by-column build with its checks."""
    rng = random.Random(100 * N + D)
    for p in range(min((N - 1) * D, 8)):
        assert _transition(N, D, p) == oracle_transition(N, D, p), (N, D, p)
    for p in range(min((N - 1) * D, 8) + 1):
        sp = omega_space(N, D, p)
        Y = sp.projector
        assert sp.basis == _all_fillings_basis(sp)
        c = _searched_constant(Y)
        assert c == (1 / Y.norm if sp.dim else None)
        tensor = {tuple(rng.randrange(D) for _ in range(p)): rat(rng.randint(-5, 5), 3)
                  for _ in range(3)}
        assert Y.apply_raw(tensor) == _fraction_apply_raw(Y, tensor)


def _coords_or_refusal(space, tensor):
    """``space.coords(tensor)``, or None when it refuses the tensor."""
    try:
        return space.coords(tensor)
    except ValueError as exc:
        assert "symmetry type" in str(exc)
        return None


@pytest.mark.parametrize(
    "N,D", [(N, D) for N in range(2, 6) for D in range(1, 5)],
    ids=[f"N{N}-D{D}" for N in range(2, 6) for D in range(1, 5)],
)
def test_coords_match_the_support_solver(N, D):
    """``coords`` at the semistandard positions against
    ``oracle_symmetry_coords``, a solve over every position of the basis'
    support.  On every space of ``test_closed_forms_match_the_searches``:
    each basis tensor, a random combination of the basis, the projection of
    a random tensor, and a random tensor (which both refuse unless it lies
    in the space).  And on every input Y(e_mu ox b_s) that ``_transition``
    forms into a space of at most 1024 tensor positions, D^(p+1), each
    against the column s of T_mu it fills."""
    rng = random.Random(100 * N + D)
    refused = []

    def check(space, tensor, name, member=True):
        want = oracle_symmetry_coords(space, tensor)
        assert _coords_or_refusal(space, tensor) == want, name
        if want is None:
            assert not member, name
            refused.append(name)
        return want

    top = (N - 1) * D
    for p in range(min(top, 8) + 1):
        sp = omega_space(N, D, p)
        where = f"Omega^{p} of N={N}, D={D}, shape {sp.diagram.rows}"
        for s, b in enumerate(sp.basis):
            assert check(sp, b, f"{where}: basis tensor {s}") == {s: rat(1)}
        combo, cs = {}, [rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in sp.basis]
        for c, b in zip(cs, sp.basis):
            for t, v in b.items():
                accumulate(combo, t, c * v)
        assert check(sp, combo, f"{where}: basis combination {cs}") == {
            s: c for s, c in enumerate(cs) if c}
        randoms = {tuple(rng.randrange(D) for _ in range(p)): rat(rng.randint(1, 5), 3)
                   for _ in range(3)}
        check(sp, sp.projector.apply(randoms), f"{where}: Y of {randoms}")
        check(sp, randoms, f"{where}: {randoms}", member=False)
    for p in range(top):
        if D ** (p + 1) > 1024:
            break
        src, tgt = omega_space(N, D, p), omega_space(N, D, p + 1)
        for mu, T in enumerate(_transition(N, D, p)):
            cols = T.columns()
            for s, b in enumerate(src.basis):
                Yb = tgt.projector.apply({(mu,) + t: v for t, v in b.items()})
                name = f"Y(e_{mu} ox b_{s}) from Omega^{p} of N={N}, D={D}"
                assert check(tgt, Yb, name) == cols[s], name
    # over D = 1 each space is the line of e_0 ox ... ox e_0: nothing to refuse
    assert refused or D == 1


@pytest.mark.parametrize("k", [1, 2])
def test_poincare_n3_d4(k):
    """Theorem 3 for spin 2 in four dimensions (N = 3, D = 4)."""
    rep = poincare_verify(3, 4, k, 6)
    assert rep["ok"]
    assert rep["h0_total"] == rep["h0_expected_total"]
