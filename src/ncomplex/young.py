"""Young diagrams and symmetrizers; the N-complexes of maximally-filled
Young-symmetrized tensor fields with polynomial coefficients; the generalized
Poincare lemma verifier, higher-spin exact sequences, the divergence-free
2-tensor potential solver, and the (non-associative) symmetrized product.

Polynomials are sparse dicts {exponent tuple: rational}.  Their one
derivative is ``poly_derivative``, which ``brs`` shares, and the spin-2
duality on R^3 has one double dual, ``_dual_pair`` (R = eps eps X): the
random T = dd(eps eps h) and both duals of ``potential_solve`` are it."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter, mul

from .fields import QQ, accumulate, rat
from .graded import GradedNComplex, graded_homology
from .linalg import EchelonSolver, ExactMatrix, Subspace, kron, place_blocks
from .ndiff import exact_at


@dataclass(frozen=True)
class YoungDiagram:
    rows: tuple  # weakly decreasing positive row lengths

    def __post_init__(self):
        if not all(a >= b for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError(f"Young diagram rows {self.rows} are not weakly decreasing")
        if not all(r > 0 for r in self.rows):
            raise ValueError(f"Young diagram rows {self.rows} are not all positive")

    @property
    def cells(self):
        return sum(self.rows)

    @property
    def ncols(self):
        return self.rows[0] if self.rows else 0

    def column_heights(self):
        return [
            sum(1 for r in self.rows if r > c) for c in range(self.ncols)
        ]


def maximal_diagram(N, p):
    """Y^N_p: rows of length N-1 filled maximally, remainder in the last row."""
    if N < 2 or p < 0:
        raise ValueError("need N >= 2 and p >= 0")
    if p == 0:
        return YoungDiagram(())
    n_p, r_p = divmod(p, N - 1)
    rows = (N - 1,) * n_p + ((r_p,) if r_p else ())
    return YoungDiagram(rows)


def _hook_product(diagram):
    """The product of the hook lengths of the cells of ``diagram``."""
    heights = diagram.column_heights()
    return math.prod(
        rlen - j + heights[j] - i - 1
        for i, rlen in enumerate(diagram.rows) for j in range(rlen)
    )


def weyl_dim(diagram, D):
    """GL_D irrep dimension by the hook content formula."""
    if len(diagram.rows) > D:
        return 0
    contents = math.prod(
        D + j - i for i, rlen in enumerate(diagram.rows) for j in range(rlen)
    )
    hooks = _hook_product(diagram)
    if contents % hooks:
        raise AssertionError(
            f"hook-content formula gave the non-integer {contents}/{hooks}")
    return contents // hooks


def _row_positions(diagram):
    starts = itertools.accumulate((0,) + diagram.rows)
    return [list(range(s, s + r)) for s, r in zip(starts, diagram.rows)]


def _col_positions(diagram):
    rows = _row_positions(diagram)
    return [[row[c] for row in rows if len(row) > c] for c in range(diagram.ncols)]


def _perm_sign(perm):
    """(-1)^(number of inversions of the sequence perm)."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _group_table(group, p, signed):
    """``[(perm, sign), ...]``: the permutations of 0..p-1 that move only the
    positions in ``group``, each as the ``itemgetter`` that permutes an index
    tuple, with their signs when ``signed`` and +1 otherwise.  The group has
    at least two positions, so each lookup returns a tuple."""
    table = []
    for gperm in itertools.permutations(group):
        perm = list(range(p))
        for src, dst in zip(group, gperm):
            perm[src] = dst
        table.append((itemgetter(*perm), _perm_sign(gperm) if signed else 1))
    return table


class Symmetrizer:
    """Row-symmetrize then column-antisymmetrize, rescaled to be idempotent:
    Y^2 = (product of the hook lengths) Y (Fulton and Harris, Representation
    Theory, Lemma 4.26), so ``norm`` is the inverse of that product.

    Applied operator-style: tensors are dicts {index tuple: rational}.  Each
    row group, then each column group (signed), is summed over in turn, so
    the cost is a sum over the groups, not over their product.  Each group
    is closed under inverses and sign(g^-1) = sign(g), so each table's sum
    is its own transpose: Y = norm C R gives Y^T = norm R C, the same tables
    run in reverse order (``transpose``)."""

    def __init__(self, diagram, D):
        self.diagram = diagram
        self.D = D
        self.p = diagram.cells
        self.tables = [
            _group_table(group, self.p, signed)
            for groups, signed in ((_row_positions(diagram), False),
                                   (_col_positions(diagram), True))
            for group in groups if len(group) > 1
        ]
        self.norm = rat(1, _hook_product(diagram))

    def apply_raw(self, tensor, transpose=False):
        """Unnormalized symmetrizer, or with ``transpose`` its transpose,
        summed on integer numerators."""
        nums, den = QQ.split(list(tensor.values()))
        acc = self.apply_int({t: v for t, v in zip(tensor, nums) if v}, transpose)
        return {t: rat(v, den) for t, v in acc.items()}

    def apply_int(self, acc, transpose=False):
        """``apply_raw`` on a tensor of nonzero ints, as ints."""
        for table in self.tables[::-1] if transpose else self.tables:
            out = {}
            for t, v in acc.items():
                for perm, sgn in table:
                    accumulate(out, perm(t), v if sgn > 0 else -v)
            acc = out
        return acc

    def apply(self, tensor):
        """The idempotent projector."""
        out = self.apply_raw(tensor)
        return {t: self.norm * v for t, v in out.items()}


class SymmetrySpace:
    """Image of the Young projector inside the degree-p tensor space, with a
    deterministic basis: the projections b_s of the semistandard unit tensors
    (rows weakly, columns strictly increasing), in enumeration order, which
    are a basis by the standard basis theorem (Fulton, Young Tableaux, 8.1).
    Coordinates are those of a ``linalg.Subspace`` of the D^p tensor space
    (t at row t_1 ... t_p in base D, as ``linalg.index_tuple`` reads it)
    with the semistandard rows S, ascending, as positions: one solve of
    B_S = (b_s[t]), t in S, and the membership check off S.  Construction
    certifies rank B_S = ``weyl_dim`` (rank B_S <= rank [b_s]).

    A projection Y x is read with no check: ``projection_reader``, built
    on first use, is R = B_S^-1 U, where row t of U is u_t = Y^T e_t, t in
    S, so that (Y x)_t = <u_t, x>.  R x are the coordinates of Y x because
    the b_s span im Y: rank B_S = ``weyl_dim`` is the certificate above, and
    dim im Y = ``weyl_dim`` is the cited fact (Fulton and Harris, Thm 6.3)."""

    def __init__(self, diagram, D):
        self.diagram = diagram
        self.D = D
        self.projector = Symmetrizer(diagram, D)
        self.positions = self._semistandard_tuples()
        self.basis = [self.projector.apply({t: rat(1)}) for t in self.positions]
        self.dim = len(self.basis)
        if self.dim != weyl_dim(diagram, D):
            raise AssertionError(f"{diagram.rows} over D = {D} has {self.dim} "
                                 f"semistandard tableaux, not weyl_dim")
        n = D ** diagram.cells
        self._space = Subspace(n, ExactMatrix.from_columns(
            [self._rows(b) for b in self.basis], n, QQ),
            positions=list(self._rows(dict.fromkeys(self.positions))))
        try:  # the first read certifies rank B_S = dim
            self._space.coordinates({})
        except ValueError as err:
            raise AssertionError(f"semistandard projections of {diagram.rows} "
                                 f"over D = {D}: {err}") from None
        if self.basis and self.projector.apply(self.basis[0]) != self.basis[0]:
            raise AssertionError(
                f"Young symmetrizer of {diagram.rows} fails Y^2 = cY")

    def _semistandard_tuples(self):
        """The row-sorted fillings whose columns strictly increase, read row
        by row, in the order of ``itertools.product`` over the rows: each row
        extends only the fillings whose last row its columns can follow."""
        rows, fillings, last = self.diagram.rows, [()], 0
        for start, r in zip(itertools.accumulate((0,) + rows), rows):
            combos = list(itertools.combinations_with_replacement(range(self.D), r))
            fillings = [f + c for f in fillings for c in combos
                        if all(a < b for a, b in zip(f[last:], c))]
            last = start
        return fillings

    def _rows(self, tensor):
        """The tensor in the D^p space, at the rows the class docstring names."""
        place = [self.D ** i for i in reversed(range(self.diagram.cells))]
        return {sum(map(mul, t, place)): v for t, v in tensor.items()}

    def coords(self, tensor):
        """Coordinates in the basis; tensor must lie in the image."""
        x = self._space.coordinates(self._rows(tensor))
        if x is None:
            raise ValueError("tensor does not have this symmetry type")
        return x

    @cached_property
    def projection_reader(self):
        """R = B_S^-1 U, dim x D^p: R x are the coordinates of Y x (see the
        class docstring), with B_S^-1 from the one solver of B_S."""
        Y = self.projector
        # U keeps the integer sums: a product reads only their split, D = 1
        U = ExactMatrix(self.dim, self._space.ambient_dim, QQ, {
            (i, r): v for i, t in enumerate(self.positions)
            for r, v in self._rows(Y.apply_int({t: 1}, transpose=True)).items()})
        return self._space.position_inverse().scale(Y.norm) @ U


@lru_cache(maxsize=None)
def omega_space(N, D, p):
    """The symmetry space of Omega^p_N(R^D)."""
    return SymmetrySpace(maximal_diagram(N, p), D)


@lru_cache(maxsize=None)
def _transition(N, D, p):
    """T_mu, mu < D: column s holds the coordinates in Omega^(p+1) of
    Y(e_mu ox b_s), read by the target's ``projection_reader`` R as one sparse
    product per mu: R's columns of the block e_mu ox D^p times the source basis."""
    src = omega_space(N, D, p)
    R, n = omega_space(N, D, p + 1).projection_reader, D ** p
    return [R.take_columns(range(mu * n, (mu + 1) * n)) @ src._space.basis
            for mu in range(D)]


# -- polynomial bookkeeping ---------------------------------------------------


@lru_cache(maxsize=None)
def monomials(D, w):
    """Exponent tuples of total degree w in D variables, lex sorted."""
    if D < 1:
        raise ValueError(f"need at least one variable, got D = {D}")
    if w < 0:
        return ()
    if D == 1:
        return ((w,),)
    return tuple((first,) + rest for first in range(w, -1, -1)
                 for rest in monomials(D - 1, w - first))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_derivative(m, mu):
    """d/dx_mu of the monomial m as (monomial, factor); (None, 0) if it
    vanishes."""
    if m[mu] == 0:
        return None, 0
    out = list(m)
    out[mu] -= 1
    return tuple(out), m[mu]


def poly_derivative(poly, mu, out=None):
    """d/dx_mu of the polynomial {monomial: rational}, added into ``out`` in
    place when given."""
    if out is None:
        out = {}
    for m, v in poly.items():
        dm, e = mono_derivative(m, mu)
        if dm is not None:
            accumulate(out, dm, v * e)
    return out


def mono_derivative2(m, a, b):
    """d/dx_b d/dx_a of the monomial m, as ``mono_derivative``."""
    m1, e1 = mono_derivative(m, a)
    if m1 is None:
        return None, 0
    m2, e2 = mono_derivative(m1, b)
    return m2, e1 * e2


def _derivative_matrix(D, w, mu):
    """d/dx_mu from the monomials of weight w to those of weight w - 1."""
    tindex = {m: i for i, m in enumerate(monomials(D, w - 1))}
    ent = {}
    for j, m in enumerate(monomials(D, w)):
        dm, e = mono_derivative(m, mu)
        if dm is not None:
            ent[(tindex[dm], j)] = rat(e)
    return ExactMatrix(len(tindex), len(monomials(D, w)), QQ, ent, _clean=False)


@dataclass
class PolyTensorField:
    """Bihomogeneous field: tensor degree p, polynomial degree wpoly,
    coordinates over (monomials) x (symmetry basis of Omega^p)."""

    N: int
    D: int
    p: int
    wpoly: int
    coords: dict  # (mono, s) -> rational

    @property
    def weight(self):
        return self.p + self.wpoly

    def is_zero(self):
        return not self.coords

    def raw_tensor_poly(self):
        """As {mono: {index tuple: value}}."""
        space = omega_space(self.N, self.D, self.p)
        out = {}
        for (m, s), c in self.coords.items():
            ten = out.setdefault(m, {})
            for t, v in space.basis[s].items():
                accumulate(ten, t, c * v)
        return out


def differential(field):
    """d = Y_(p+1) o (gradient): maps (p, wpoly) to (p+1, wpoly-1)."""
    N, D, p = field.N, field.D, field.p
    C = weight_complex(N, D, field.weight)
    coords = {}
    if p in C.maps:  # past the top degree every field maps to zero
        coords = _vector_coords(C, p + 1, C.maps[p].apply(field_to_vector(field)[1]))
    return PolyTensorField(N, D, p + 1, field.wpoly - 1, coords)


@lru_cache(maxsize=None)
def weight_complex(N, D, w):
    """The finite complex along p + wpoly = w: degrees p = 0..min(w, (N-1)D),
    bounded on both sides, over Q.  C^p has the basis monomial ox b_s in
    row-major order, and d_p = sum_mu (d/dx_mu) ox T_mu."""
    p_top = min(w, (N - 1) * D)
    dims = {}
    layout = {}
    for p in range(p_top + 1):
        monos = monomials(D, w - p)
        space = omega_space(N, D, p)
        layout[p] = (monos, {m: i for i, m in enumerate(monos)}, space)
        dims[p] = len(monos) * space.dim
    maps = {
        p: place_blocks(dims[p + 1], dims[p], QQ, [
            (0, 0, kron(_derivative_matrix(D, w - p, mu), T))
            for mu, T in enumerate(_transition(N, D, p))
        ])
        for p in range(p_top)
    }
    C = GradedNComplex(N, QQ, dims, maps)
    C._layout = layout
    return C


def field_to_vector(field):
    C = weight_complex(field.N, field.D, field.weight)
    _, mindex, space = C._layout[field.p]
    return C, {mindex[m] * space.dim + s: c for (m, s), c in field.coords.items()}


def _vector_coords(C, p, vec):
    """The field coordinates {(monomial, s): value} of a vector of C^p."""
    monos, _, space = C._layout[p]
    k = space.dim
    return {(monos[idx // k], idx % k): c for idx, c in vec.items()}


def poincare_verify(N, D, k, w_max):
    """Theorem-3 instance check for one k: (a) H^((N-1)n)_(k) = 0 for n >= 1
    at every weight <= w_max; (b) dim H^0_(k) at weight w matches the count of
    degree-w monomials for w < k and is 0 for w >= k; (c) the nonzero classes
    found at p not divisible by N-1 are reported, not asserted."""
    if not 1 <= k <= N - 1:
        raise ValueError("need 1 <= k <= N-1")
    if w_max < 0:
        raise ValueError(f"no weight <= {w_max}: nothing to check")
    report = {
        "ok": True,
        "N": N,
        "D": D,
        "k": k,
        "w_max": w_max,
        "dims": {},
        "nonzero_offgrid": [],
        "h0_total": 0,
    }
    for w in range(w_max + 1):
        C = weight_complex(N, D, w)
        H = graded_homology(C, ms=[k])
        for p in C.degrees():
            dim = H[(p, k)].dim_H
            if dim:
                report["dims"][f"w={w},p={p}"] = dim
            if p % (N - 1) == 0 and p > 0:
                if dim != 0:
                    report["ok"] = False
            elif p == 0:
                want = len(monomials(D, w)) if w <= k - 1 else 0
                if dim != want:
                    report["ok"] = False
                report["h0_total"] += dim
            else:
                if dim:
                    report["nonzero_offgrid"].append((w, p, dim))
    want_total = sum(len(monomials(D, w)) for w in range(min(k, w_max + 1)))
    if report["h0_total"] != want_total:
        report["ok"] = False
    report["h0_expected_total"] = want_total
    return report


def spin_sequence_check(S, D, w_max):
    """Exactness of Omega^(S-1) -d-> Omega^S -d^S-> Omega^(2S) -d-> Omega^(2S+1)
    at the two middle nodes, per weight; N = S + 1.  Raises ValueError when
    no weight reaches degree 2S, which needs w >= 2S and the top degree
    S D >= 2S: so for w_max < 2S and for D < 2."""
    if S < 1:
        raise ValueError("S >= 1")
    if D < 2 or w_max < 2 * S:
        raise ValueError(
            f"no weight <= {w_max} reaches degree 2S = {2 * S} over D = {D}: "
            "nothing to check")
    N = S + 1
    report = {"ok": True, "S": S, "D": D, "weights": {}}
    for w in range(w_max + 1):
        C = weight_complex(N, D, w)
        top = max(C.degrees())
        entry = {}
        if S <= top:  # past the top, composite is a map into the zero space
            mid = C.composite(S, S)
            entry["exact_at_S"] = exact_at(C.composite(S - 1, 1), mid, C.dims[S])
            if 2 * S <= top:
                entry["exact_at_2S"] = exact_at(mid, C.composite(2 * S, 1), C.dims[2 * S])
        report["ok"] = report["ok"] and all(entry.values())
        report["weights"][w] = entry
    return report


# -- the spin-2 explicit curvature operator ----------------------------------


def _d2_raw_on_basis(D, mono, h_tensor):
    """Explicit linearized curvature of h = mono * h_tensor:

        (d_2 h)_(lam mu, rho nu) = d_lam d_rho h_(mu nu)
            + d_mu d_nu h_(lam rho) - d_mu d_rho h_(lam nu)
            - d_lam d_nu h_(mu rho)

    returned in row-major tableau coordinates (lam, rho, mu, nu) keyed by
    (target monomial, index tuple)."""
    out = {}
    for (i1, i2), hval in h_tensor.items():
        for x in range(D):
            for y in range(D):
                m2, e = mono_derivative2(mono, x, y)
                if m2 is None:
                    continue
                c = hval * rat(e)
                # d_x d_y h_(i1 i2) with (x, y) = (lam, rho)
                accumulate(out, (m2, (x, y, i1, i2)), c)
                # (x, y) = (mu, nu), h at (lam, rho)
                accumulate(out, (m2, (i1, i2, x, y)), c)
                # -(x, y) = (mu, rho), h at (lam, nu)
                accumulate(out, (m2, (i1, y, x, i2)), -c)
                # -(x, y) = (lam, nu), h at (mu, rho)
                accumulate(out, (m2, (x, i2, i1, y)), -c)
    return out


def spin2_middle_proportional(D, w_max):
    """Verify the explicit linearized-curvature operator is one global scalar
    multiple of d^2: Omega^2 -> Omega^4, across all weights <= w_max.
    Raises ValueError when no weight has a nonzero operator to compare,
    which is so for w_max < 4 and for D = 1."""
    constant = None
    for w in range(4, w_max + 1):
        C = weight_complex(3, D, w)
        if 4 not in C.dims or C.dims[2] == 0 or C.dims[4] == 0:
            continue
        monos, _, space2 = C._layout[2]
        space4 = C._layout[4][2]
        # the columns of d^2 follow the row-major basis of C^2
        basis2 = itertools.product(monos, range(space2.dim))
        for (m, s), col in zip(basis2, C.composite(2, 2).columns()):
            raw = _d2_raw_on_basis(D, m, space2.basis[s])
            raw_dd = {}
            for (m4, s4), v in _vector_coords(C, 4, col).items():
                for t, bv in space4.basis[s4].items():
                    accumulate(raw_dd, (m4, t), v * bv)
            if not raw and not raw_dd:
                continue
            if constant is None:
                for key, v in raw.items():
                    if key in raw_dd and raw_dd[key]:
                        constant = v / raw_dd[key]
                        break
                if constant is None:
                    return {"ok": False, "reason": "no comparable entry"}
            scaled = {k: constant * v for k, v in raw_dd.items()}
            if scaled != raw:
                return {"ok": False, "reason": f"mismatch at w={w}"}
    if constant is None:
        raise ValueError(f"d^2 from Omega^2 to Omega^4 is zero at every weight "
                         f"<= {w_max} over D = {D}: nothing to compare")
    return {"ok": constant != 0, "constant": str(constant)}


# -- symmetrized product -------------------------------------------------------


def basis_field(N, D, p, mono, s):
    return PolyTensorField(N, D, p, sum(mono), {(mono, s): rat(1)})


def y_product(a, b):
    """(alpha beta)(x) = Y_(a+b)(alpha(x) ox beta(x)); bilinear over
    polynomials, generically non-associative.  Y of each product of tensor
    parts is read by the target's ``projection_reader``."""
    if (a.N, a.D) != (b.N, b.D):
        raise ValueError("tensor fields over different (N, D)")
    p = a.p + b.p
    tgt = omega_space(a.N, a.D, p)
    out = {}
    for (ma, ta), (mb, tb) in itertools.product(a.raw_tensor_poly().items(),
                                                b.raw_tensor_poly().items()):
        raw = {u + v: x * y for u, x in ta.items() for v, y in tb.items()}
        for s, c in tgt.projection_reader.apply(tgt._rows(raw)).items():
            accumulate(out, (mono_mul(ma, mb), s), c)
    return PolyTensorField(a.N, a.D, p, a.wpoly + b.wpoly, out)


def nonassociativity_witness(N=3, D=2, wpoly=0):
    """A triple of low-degree fields with (ab)c != a(bc), or None."""
    fields = [basis_field(N, D, 1, m, s) for m in monomials(D, wpoly)
              for s in range(omega_space(N, D, 1).dim)]
    for ia, a in enumerate(fields):
        for ib, b in enumerate(fields):
            ab = y_product(a, b)
            for ic, c in enumerate(fields):
                lhs = y_product(ab, c)
                rhs = y_product(a, y_product(b, c))
                if lhs.coords != rhs.coords:
                    return {"indices": (ia, ib, ic)}
    return None


# -- duality: the divergence-free 2-tensor potential -------------------------


def _epsilon3():
    return {perm: _perm_sign(perm) for perm in itertools.permutations(range(3))}


def _dual_pair(X):
    """The double dual (p, q, r, s) -> sum_ij eps^(ipq) eps^(jrs) X_ij of a
    2-tensor X = {(i, j): polynomial} on R^3, without zero entries: antisymmetric
    in (p, q) and in (r, s)."""
    eps = _epsilon3()
    out = {}
    for (i, j), poly in X.items():
        for p, q, r, s in itertools.product(range(3), repeat=4):
            e = eps.get((i, p, q), 0) * eps.get((j, r, s), 0)
            if e:
                acc = out.setdefault((p, q, r, s), {})
                for mono, v in poly.items():
                    accumulate(acc, mono, e * v)
    return {k: p for k, p in out.items() if p}


def _tableau_read(R):
    """{mono: {(p, r, q, s): value}}: a tensor (p, q, r, s) -> polynomial,
    antisymmetric in (p, q) and in (r, s), read in the row-major order of
    the 2 x 2 tableau with columns (p, q) and (r, s)."""
    out = {}
    for (p, q, r, s), poly in R.items():
        for mono, v in poly.items():
            out.setdefault(mono, {})[(p, r, q, s)] = v
    return out


def divergence(T):
    """d_mu T^(mu nu) on R^3, per nu."""
    out = []
    for nu in range(3):
        acc = {}
        for mu in range(3):
            poly_derivative(T.get((mu, nu), {}), mu, acc)
        out.append(acc)
    return out


def random_divergence_free(rng):
    """T = d_lam d_rho R^(lam mu rho nu) for R = eps eps h, the double dual
    of a random symmetric h with homogeneous entries of degree 4, so T has
    degree 2; divergence-free and symmetric by construction."""
    h = {}
    for b in range(3):
        for d in range(b, 3):
            poly = {m: rat(c) for m in monomials(3, 4) if (c := rng.randint(-3, 3))}
            h[(b, d)] = poly
            h[(d, b)] = poly
    return _contract_dd(_dual_pair(h))


def _contract_dd(R):
    """(mu, nu) -> d_lam d_rho R^(lam mu rho nu), without zero entries."""
    out = {}
    for (lam, mu, rho, nu), poly in R.items():
        poly_derivative(poly_derivative(poly, lam), rho,
                        out.setdefault((mu, nu), {}))
    return {k: p for k, p in out.items() if p}


def potential_solve(T, w):
    """Solve T^(mu nu) = d_lam d_rho R^(lam mu rho nu) for R with the Riemann
    symmetry, given symmetric divergence-free T with homogeneous degree-w
    polynomial entries on R^3.

    Route: dualize to tau = eps eps T in Omega^4_3, solve tau = d^2 rho per
    weight, dualize back to R = eps eps rho, fix the overall constant, and
    verify exactly.  Both duals are ``_dual_pair``; read in tableau order
    (``_tableau_read``) they are tensors of Omega^4_3."""
    D = 3
    for mu in range(D):
        for nu in range(D):
            if T.get((mu, nu), {}) != T.get((nu, mu), {}):
                raise ValueError("T is not symmetric")
    if any(sum(m) != w for poly in T.values() for m in poly):
        raise ValueError(f"T has entries that are not homogeneous of degree {w}")
    if any(divergence(T)):
        raise ValueError("T is not divergence-free")
    if all(not T.get((mu, nu)) for mu in range(D) for nu in range(D)):
        return {"R": {}, "constant": "0"}

    space4 = omega_space(3, D, 4)
    tau_coords = {(mono, s): c
                  for mono, ten in _tableau_read(_dual_pair(T)).items()
                  for s, c in space4.coords(ten).items()}
    tau = PolyTensorField(3, D, 4, w, tau_coords)
    if not differential(tau).is_zero():
        raise AssertionError("dual tensor is not d-closed")

    # solve tau = d^2 rho at weight w + 4
    C, tau_vec = field_to_vector(tau)
    dd = C.composite(2, 2)
    sol = EchelonSolver(dd).solve(tau_vec)
    if sol is None:
        raise AssertionError("tau = d^2 rho has no solution (theorem violated)")
    space2 = C._layout[2][2]
    rho = {}  # (a, b) -> poly
    for (mono, s), c in _vector_coords(C, 2, sol).items():
        for (a, b), v in space2.basis[s].items():
            accumulate(rho.setdefault((a, b), {}), mono, c * v)

    # R^(lam mu rho nu) = eps^(a lam mu) eps^(b rho nu) rho_(a b) has the
    # Riemann symmetry: read in tableau order it lies in Omega^4
    R = _dual_pair(rho)
    for ten in _tableau_read(R).values():
        space4.coords(ten)  # raises if the symmetry fails

    # T' = d_lam d_rho R^(lam mu rho nu); then T = c T'
    Tprime = _contract_dd(R)
    constant = None
    for key, poly in T.items():
        if poly:
            mono = next(iter(poly))
            if key not in Tprime or mono not in Tprime[key]:
                raise AssertionError("reconstructed tensor misses a component")
            constant = poly[mono] / Tprime[key][mono]
            break
    R_scaled = {
        k: {m: constant * v for m, v in poly.items()} for k, poly in R.items()
    }
    # exact verification
    want = {k: p for k, p in T.items() if p}
    if _contract_dd(R_scaled) != want:
        raise AssertionError("T != dd R after rescaling")
    return {"R": R_scaled, "constant": str(constant)}
