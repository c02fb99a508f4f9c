"""Young diagrams and symmetrizers; the N-complexes of maximally-filled
Young-symmetrized tensor fields with polynomial coefficients; the generalized
Poincare lemma verifier, higher-spin exact sequences, the divergence-free
2-tensor potential solver, and the (non-associative) symmetrized product."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .fields import QQ, R_ZERO, accumulate, rat
from .graded import GradedNComplex, graded_homology
from .linalg import EchelonSolver, ExactMatrix


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


def weyl_dim(diagram, D):
    """GL_D irrep dimension by the hook content formula."""
    rows = diagram.rows
    heights = diagram.column_heights()
    if len(rows) > D:
        return 0
    num = rat(1)
    den = rat(1)
    for i, rlen in enumerate(rows):
        for j in range(rlen):
            num *= rat(D + j - i)
            arm = rlen - j - 1
            leg = heights[j] - i - 1
            den *= rat(arm + leg + 1)
    q = num / den
    if q.denominator != 1:
        raise AssertionError(f"hook-content formula gave the non-integer {q}")
    return int(q)


def _row_positions(diagram):
    pos = 0
    rows = []
    for r in diagram.rows:
        rows.append(list(range(pos, pos + r)))
        pos += r
    return rows


def _col_positions(diagram):
    rows = _row_positions(diagram)
    cols = []
    for c in range(diagram.ncols):
        cols.append([row[c] for row in rows if len(row) > c])
    return cols


def _group_perms(groups, p, signed):
    """Permutations of 0..p-1 fixing each group setwise, as lookup tuples
    (with signs when ``signed``)."""
    perms = [tuple(range(p))] if p else [()]
    signs = [1]
    for group in groups:
        if len(group) < 2:
            continue
        new_perms, new_signs = [], []
        for gperm in itertools.permutations(group):
            if signed:
                seen = list(gperm)
                sgn = 1
                for i in range(len(seen)):
                    for j in range(i + 1, len(seen)):
                        if seen[i] > seen[j]:
                            sgn = -sgn
            else:
                sgn = 1
            for base, bs in zip(perms, signs):
                arr = list(base)
                for src, dst in zip(group, gperm):
                    arr[src] = base[dst]
                new_perms.append(tuple(arr))
                new_signs.append(bs * sgn)
        perms, signs = new_perms, new_signs
    return perms, signs


class Symmetrizer:
    """Row-symmetrize then column-antisymmetrize, rescaled to be idempotent.

    Applied operator-style: tensors are dicts {index tuple: rational}."""

    def __init__(self, diagram, D):
        self.diagram = diagram
        self.D = D
        self.p = diagram.cells
        rows = _row_positions(diagram)
        cols = _col_positions(diagram)
        self.row_perms, _ = _group_perms(rows, self.p, signed=False)
        self.col_perms, self.col_signs = _group_perms(cols, self.p, signed=True)
        self.norm = None  # determined empirically on first image

    def apply_raw(self, tensor):
        """Unnormalized symmetrizer."""
        mid = {}
        for t, v in tensor.items():
            for perm in self.row_perms:
                u = tuple(t[i] for i in perm)
                mid[u] = mid.get(u, R_ZERO) + v
        out = {}
        for t, v in mid.items():
            if not v:
                continue
            for perm, sgn in zip(self.col_perms, self.col_signs):
                accumulate(out, tuple(t[i] for i in perm), v if sgn > 0 else -v)
        return out

    def _normalize_constant(self):
        if self.norm is not None:
            return
        for t in itertools.product(range(self.D), repeat=self.p):
            img = self.apply_raw({t: rat(1)})
            if img:
                twice = self.apply_raw(img)
                key = next(iter(img))
                if img[key] and key in twice:
                    c = twice[key] / img[key]
                    if c == 0:
                        raise AssertionError("Young symmetrizer has Y^2 = 0")
                    # verify Y^2 = c Y on this image
                    if twice != {u: c * v for u, v in img.items()}:
                        raise AssertionError("Young symmetrizer fails Y^2 = c Y")
                    self.norm = 1 / c
                    return
        self.norm = rat(1)  # zero projector (space is 0)

    def apply(self, tensor):
        """The idempotent projector."""
        self._normalize_constant()
        out = self.apply_raw(tensor)
        return {t: self.norm * v for t, v in out.items()}


def _flat(t, D):
    idx = 0
    for x in t:
        idx = idx * D + x
    return idx


class SymmetrySpace:
    """Image of the Young projector inside the degree-p tensor space, with a
    deterministic basis (projections of unit tensors, greedily independent)."""

    def __init__(self, diagram, D):
        self.diagram = diagram
        self.D = D
        self.p = diagram.cells
        self.projector = Symmetrizer(diagram, D)
        basis_cols = []
        echelon = {}  # lead flat index -> normalized dict {flat: val}
        if len(diagram.rows) <= D:
            # row-symmetrization identifies tuples that agree up to row
            # permutations, so row-sorted fillings already span the image
            for t in self._row_sorted_tuples():
                img = self.projector.apply({t: rat(1)})
                vec = {_flat(u, D): v for u, v in img.items()}
                vec = self._reduce(vec, echelon)
                if vec:
                    lead = min(vec)
                    inv = 1 / vec[lead]
                    echelon[lead] = {k: v * inv for k, v in vec.items()}
                    basis_cols.append(img)
        self.basis = basis_cols
        self.dim = len(basis_cols)
        if self.dim:
            mat = ExactMatrix.from_columns(
                [{_flat(t, D): v for t, v in col.items()} for col in basis_cols],
                D**self.p if self.p else 1,
                QQ,
            )
            self.solver = EchelonSolver(mat)
        else:
            self.solver = None

    def _row_sorted_tuples(self):
        if self.p == 0:
            yield ()
            return
        per_row = [
            list(itertools.combinations_with_replacement(range(self.D), r))
            for r in self.diagram.rows
        ]
        for combo in itertools.product(*per_row):
            yield tuple(x for row in combo for x in row)

    @staticmethod
    def _reduce(vec, echelon):
        vec = dict(vec)
        for lead in sorted(echelon):
            if lead in vec:
                c = vec[lead]
                for k, v in echelon[lead].items():
                    accumulate(vec, k, -c * v)
        return vec

    def coords(self, tensor):
        """Coordinates in the basis; tensor must lie in the image."""
        if self.dim == 0:
            if tensor:
                raise ValueError("nonzero tensor in a zero symmetry space")
            return {}
        vec = {_flat(t, self.D): v for t, v in tensor.items() if v}
        c = self.solver.solve(vec)
        if c is None:
            raise ValueError("tensor does not have this symmetry type")
        return c

    def expand(self, coords):
        out = {}
        for j, c in coords.items():
            for t, v in self.basis[j].items():
                accumulate(out, t, c * v)
        return out


@lru_cache(maxsize=None)
def _symmetrizer(diagram, D):
    return Symmetrizer(diagram, D)


def symmetrizer_apply(diagram, D, tensor):
    """Apply the idempotent Young projector of ``diagram`` to a degree-p
    tensor given as {index tuple: rational}."""
    if tensor and any(len(t) != diagram.cells for t in tensor):
        raise ValueError("tensor degree must match the cell count")
    return _symmetrizer(diagram, D).apply(tensor)


@lru_cache(maxsize=None)
def omega_space(N, D, p):
    """The symmetry space of Omega^p_N(R^D)."""
    return SymmetrySpace(maximal_diagram(N, p), D)


@lru_cache(maxsize=None)
def _transition(N, D, p):
    """trans[mu][s] = coordinates in Omega^(p+1) of Y(e_mu ox b_s)."""
    src = omega_space(N, D, p)
    tgt = omega_space(N, D, p + 1)
    table = []
    for mu in range(D):
        row = []
        for b in src.basis:
            if tgt.dim == 0:
                row.append({})
                continue
            shifted = {(mu,) + t: v for t, v in b.items()}
            row.append(tgt.coords(tgt.projector.apply(shifted)))
        table.append(row)
    return table


# -- polynomial bookkeeping ---------------------------------------------------


@lru_cache(maxsize=None)
def monomials(D, w):
    """Exponent tuples of total degree w in D variables, lex sorted."""
    if w < 0:
        return ()
    if D == 1:
        return ((w,),)
    out = []
    for first in range(w, -1, -1):
        for rest in monomials(D - 1, w - first):
            out.append((first,) + rest)
    return tuple(out)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_derivative(m, mu):
    if m[mu] == 0:
        return None, 0
    out = list(m)
    out[mu] -= 1
    return tuple(out), m[mu]


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

    def scale(self, c):
        return PolyTensorField(
            self.N, self.D, self.p, self.wpoly,
            {k: c * v for k, v in self.coords.items() if c * v},
        )

    def add(self, other):
        if (self.p, self.wpoly) != (other.p, other.wpoly):
            raise ValueError("tensor fields of different rank or weight")
        out = dict(self.coords)
        for k, v in other.coords.items():
            accumulate(out, k, v)
        return PolyTensorField(self.N, self.D, self.p, self.wpoly, out)

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
    trans = _transition(N, D, p)
    out = {}
    for (m, s), c in field.coords.items():
        for mu in range(D):
            dm, e = mono_derivative(m, mu)
            if dm is None:
                continue
            coeff = c * rat(e)
            for s2, v in trans[mu][s].items():
                accumulate(out, (dm, s2), coeff * v)
    return PolyTensorField(N, D, p + 1, field.wpoly - 1, out)


@lru_cache(maxsize=None)
def weight_complex(N, D, w):
    """The finite complex along p + wpoly = w: degrees p = 0..min(w, (N-1)D),
    bounded on both sides, over Q."""
    p_top = min(w, (N - 1) * D)
    dims = {}
    layout = {}
    for p in range(p_top + 1):
        monos = monomials(D, w - p)
        space = omega_space(N, D, p)
        layout[p] = (monos, {m: i for i, m in enumerate(monos)}, space)
        dims[p] = len(monos) * space.dim
    maps = {}
    for p in range(p_top):
        monos, _, space = layout[p]
        tmonos, tindex, tspace = layout[p + 1]
        trans = _transition(N, D, p)
        ent = {}
        for mi, m in enumerate(monos):
            for s in range(space.dim):
                col = mi * space.dim + s
                for mu in range(D):
                    dm, e = mono_derivative(m, mu)
                    if dm is None:
                        continue
                    for s2, v in trans[mu][s].items():
                        row = tindex[dm] * tspace.dim + s2
                        accumulate(ent, (row, col), rat(e) * v)
        maps[p] = ExactMatrix(dims[p + 1], dims[p], QQ, ent, _clean=False)
    C = GradedNComplex(N, QQ, dims, maps)
    C._layout = layout
    return C


def field_to_vector(field):
    C = weight_complex(field.N, field.D, field.weight)
    monos, mindex, space = C._layout[field.p]
    vec = {}
    for (m, s), c in field.coords.items():
        vec[mindex[m] * space.dim + s] = c
    return C, vec


def poincare_verify(N, D, k, w_max):
    """Theorem-3 instance check for one k: (a) H^((N-1)n)_(k) = 0 for n >= 1
    at every weight <= w_max; (b) dim H^0_(k) at weight w matches the count of
    degree-w monomials for w < k and is 0 for w >= k; (c) the nonzero classes
    found at p not divisible by N-1 are reported, not asserted."""
    if not 1 <= k <= N - 1:
        raise ValueError("need 1 <= k <= N-1")
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
    at the two middle nodes, per weight; N = S + 1."""
    if S < 1:
        raise ValueError("S >= 1")
    N = S + 1
    report = {"ok": True, "S": S, "D": D, "weights": {}}
    from .linalg import rank as _rank

    for w in range(w_max + 1):
        C = weight_complex(N, D, w)
        top = max(C.degrees())

        def block(p, k):
            if p > top:
                return ExactMatrix.zeros(0, 0, QQ)
            M = C.composite(p, k)
            return M if M is not None else ExactMatrix.zeros(0, C.dims[p], QQ)

        d_in = block(S - 1, 1) if S - 1 <= top else ExactMatrix.zeros(0, 0, QQ)
        mid = block(S, S) if S <= top else None
        d_out = block(2 * S, 1) if 2 * S <= top else None
        entry = {}
        if mid is not None:
            if d_in.ncols and not (mid @ d_in).is_zero():
                report["ok"] = False
            ker_mid = mid.ncols - _rank(mid)
            entry["exact_at_S"] = _rank(d_in) == ker_mid
            if not entry["exact_at_S"]:
                report["ok"] = False
            if d_out is not None:
                if not (d_out @ mid).is_zero():
                    report["ok"] = False
                ker_out = d_out.ncols - _rank(d_out)
                entry["exact_at_2S"] = _rank(mid) == ker_out
                if not entry["exact_at_2S"]:
                    report["ok"] = False
        report["weights"][w] = entry
    return report


# -- the spin-2 explicit curvature operator ----------------------------------


def _d2_raw_on_basis(D, mono, h_tensor, tmindex):
    """Explicit linearized curvature of h = mono * h_tensor:

        (d_2 h)_(lam mu, rho nu) = d_lam d_rho h_(mu nu)
            + d_mu d_nu h_(lam rho) - d_mu d_rho h_(lam nu)
            - d_lam d_nu h_(mu rho)

    returned in row-major tableau coordinates (lam, rho, mu, nu) keyed by
    (target monomial index, index tuple)."""

    def dd(a, b):
        dm, e1 = mono_derivative(mono, a)
        if dm is None:
            return None, 0
        dm2, e2 = mono_derivative(dm, b)
        if dm2 is None:
            return None, 0
        return dm2, e1 * e2

    out = {}
    for (i1, i2), hval in h_tensor.items():
        for x in range(D):
            for y in range(D):
                m2, e = dd(x, y)
                if m2 is None:
                    continue
                c = hval * rat(e)
                mi = tmindex[m2]
                # d_x d_y h_(i1 i2) with (x, y) = (lam, rho)
                accumulate(out, (mi, (x, y, i1, i2)), c)
                # (x, y) = (mu, nu), h at (lam, rho)
                accumulate(out, (mi, (i1, i2, x, y)), c)
                # -(x, y) = (mu, rho), h at (lam, nu)
                accumulate(out, (mi, (i1, y, x, i2)), -c)
                # -(x, y) = (lam, nu), h at (mu, rho)
                accumulate(out, (mi, (x, i2, i1, y)), -c)
    return out


def spin2_middle_proportional(D, w_max):
    """Verify the explicit linearized-curvature operator is one global scalar
    multiple of d^2: Omega^2 -> Omega^4, across all weights <= w_max."""
    constant = None
    for w in range(4, w_max + 1):
        C = weight_complex(3, D, w)
        if 4 not in C.dims or C.dims[2] == 0 or C.dims[4] == 0:
            continue
        monos, _, space2 = C._layout[2]
        space4 = C._layout[4][2]
        tmonos = monomials(D, w - 4)
        tmindex = {m: i for i, m in enumerate(tmonos)}
        dd = C.composite(2, 2)
        for mi, m in enumerate(monos):
            for s in range(space2.dim):
                col = mi * space2.dim + s
                raw = _d2_raw_on_basis(D, m, space2.basis[s], tmindex)
                raw_dd = {}
                for row, v in dd.column(col).items():
                    mi4, s4 = divmod(row, space4.dim)
                    for t, bv in space4.basis[s4].items():
                        accumulate(raw_dd, (mi4, t), v * bv)
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
    return {
        "ok": constant is not None and constant != 0,
        "constant": str(constant),
    }


# -- symmetrized product -------------------------------------------------------


def basis_field(N, D, p, mono, s):
    return PolyTensorField(N, D, p, sum(mono), {(mono, s): rat(1)})


def y_product(a, b):
    """(alpha beta)(x) = Y_(a+b)(alpha(x) ox beta(x)); bilinear over
    polynomials, generically non-associative."""
    if (a.N, a.D) != (b.N, b.D):
        raise ValueError("tensor fields over different (N, D)")
    N, D = a.N, a.D
    p = a.p + b.p
    tgt = omega_space(N, D, p)
    out = {}
    ten_a = a.raw_tensor_poly()
    ten_b = b.raw_tensor_poly()
    for ma, ta in ten_a.items():
        for mb, tb in ten_b.items():
            mono = mono_mul(ma, mb)
            raw = {}
            for u, x in ta.items():
                for v, y in tb.items():
                    accumulate(raw, u + v, x * y)
            proj = tgt.projector.apply(raw)
            for s, c in tgt.coords(proj).items():
                accumulate(out, (mono, s), c)
    return PolyTensorField(N, D, p, a.wpoly + b.wpoly, out)


def nonassociativity_witness(N=3, D=2, wpoly=0):
    """A triple of low-degree fields with (ab)c != a(bc), or None."""
    fields = []
    for m in monomials(D, wpoly):
        for s in range(omega_space(N, D, 1).dim):
            fields.append(basis_field(N, D, 1, m, s))
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
    eps = {}
    for perm in itertools.permutations(range(3)):
        sgn = 1
        lst = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if lst[i] > lst[j]:
                    sgn = -sgn
        eps[perm] = rat(sgn)
    return eps


def divergence(T, D=3):
    """d_mu T^(mu nu), per nu."""
    out = []
    for nu in range(D):
        acc = {}
        for mu in range(D):
            for mono, v in T.get((mu, nu), {}).items():
                dm, e = mono_derivative(mono, mu)
                if dm is not None:
                    accumulate(acc, dm, v * rat(e))
        out.append(acc)
    return out


def random_divergence_free(rng, w=2):
    """T^(mu nu) = eps^(mu a b) eps^(nu c d) d_a d_c h_(b d) for a random
    symmetric h with homogeneous entries of degree w + 2; divergence-free and
    symmetric by construction."""
    D = 3
    eps = _epsilon3()
    h = {}
    for b in range(D):
        for d in range(b, D):
            poly = {}
            for mono in monomials(D, w + 2):
                c = rng.randint(-3, 3)
                if c:
                    poly[mono] = rat(c)
            h[(b, d)] = poly
            h[(d, b)] = poly
    T = {}
    for mu in range(D):
        for nu in range(D):
            acc = {}
            for a in range(D):
                for b in range(D):
                    e1 = eps.get((mu, a, b))
                    if not e1:
                        continue
                    for c in range(D):
                        for d in range(D):
                            e2 = eps.get((nu, c, d))
                            if not e2:
                                continue
                            for mono, v in h[(b, d)].items():
                                m1, k1 = mono_derivative(mono, a)
                                if m1 is None:
                                    continue
                                m2, k2 = mono_derivative(m1, c)
                                if m2 is None:
                                    continue
                                accumulate(acc, m2, e1 * e2 * v * rat(k1 * k2))
            if acc:
                T[(mu, nu)] = acc
    return T


def potential_solve(T, w):
    """Solve T^(mu nu) = d_lam d_rho R^(lam mu rho nu) for R with the Riemann
    symmetry, given symmetric divergence-free T with homogeneous degree-w
    polynomial entries on R^3.

    Route: dualize to tau in Omega^4_3, solve tau = d^2 rho per weight,
    dualize back, fix the overall constant, and verify exactly."""
    D = 3
    eps = _epsilon3()
    for mu in range(D):
        for nu in range(D):
            if T.get((mu, nu), {}) != T.get((nu, mu), {}):
                raise ValueError("T is not symmetric")
    if any(sum(m) != w for poly in T.values() for m in poly):
        raise ValueError(f"T has entries that are not homogeneous of degree {w}")
    if any(divergence(T, D)):
        raise ValueError("T is not divergence-free")
    if all(not T.get((mu, nu)) for mu in range(D) for nu in range(D)):
        return {"R": {}, "constant": "0"}

    # tau in row-major (2,2) coordinates (columns are the eps pairs)
    space4 = omega_space(3, D, 4)
    tau_raw = {}  # mono -> tensor dict
    for (mu, nu), poly in T.items():
        for m1 in range(D):
            for m2 in range(D):
                e1 = eps.get((mu, m1, m2))
                if not e1:
                    continue
                for n1 in range(D):
                    for n2 in range(D):
                        e2 = eps.get((nu, n1, n2))
                        if not e2:
                            continue
                        for mono, v in poly.items():
                            ten = tau_raw.setdefault(mono, {})
                            accumulate(ten, (m1, n1, m2, n2), e1 * e2 * v)
    tau_coords = {}
    for mono, ten in tau_raw.items():
        for s, c in space4.coords(ten).items():
            tau_coords[(mono, s)] = c
    tau = PolyTensorField(3, D, 4, w, tau_coords)
    if not differential(tau).is_zero():
        raise AssertionError("dual tensor is not d-closed")

    # solve tau = d^2 rho at weight w + 4
    C, tau_vec = field_to_vector(tau)
    dd = C.composite(2, 2)
    sol = EchelonSolver(dd).solve(tau_vec)
    if sol is None:
        raise AssertionError("tau = d^2 rho has no solution (theorem violated)")
    monos2, _, space2 = C._layout[2]
    rho = {}  # (a, b) -> poly
    for idx, c in sol.items():
        mi, s = divmod(idx, space2.dim)
        for (a, b), v in space2.basis[s].items():
            accumulate(rho.setdefault((a, b), {}), monos2[mi], c * v)

    # R^(lam mu rho nu) = eps^(lam mu a) eps^(rho nu b) rho_(a b)
    R = {}
    for (a, b), poly in rho.items():
        for lam in range(D):
            for mu in range(D):
                e1 = eps.get((lam, mu, a))
                if not e1:
                    continue
                for rho_i in range(D):
                    for nu in range(D):
                        e2 = eps.get((rho_i, nu, b))
                        if not e2:
                            continue
                        acc = R.setdefault((lam, mu, rho_i, nu), {})
                        for mono, v in poly.items():
                            accumulate(acc, mono, e1 * e2 * v)
    R = {k: p for k, p in R.items() if p}

    # Riemann symmetry: (lam, rho, mu, nu) row-major must lie in Omega^4
    sym_check = {}
    for (lam, mu, rho_i, nu), poly in R.items():
        for mono, v in poly.items():
            accumulate(
                sym_check.setdefault(mono, {}), (lam, rho_i, mu, nu), v
            )
    for mono, ten in sym_check.items():
        space4.coords(ten)  # raises if the symmetry fails

    # T' = d_lam d_rho R^(lam mu rho nu); then T = c T'
    Tprime = {}
    for (lam, mu, rho_i, nu), poly in R.items():
        acc = Tprime.setdefault((mu, nu), {})
        for mono, v in poly.items():
            m1, k1 = mono_derivative(mono, lam)
            if m1 is None:
                continue
            m2, k2 = mono_derivative(m1, rho_i)
            if m2 is None:
                continue
            accumulate(acc, m2, v * rat(k1 * k2))
    Tprime = {k: p for k, p in Tprime.items() if p}
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
    got = {}
    for (lam, mu, rho_i, nu), poly in R_scaled.items():
        acc = got.setdefault((mu, nu), {})
        for mono, v in poly.items():
            m1, k1 = mono_derivative(mono, lam)
            if m1 is None:
                continue
            m2, k2 = mono_derivative(m1, rho_i)
            if m2 is None:
                continue
            accumulate(acc, m2, v * rat(k1 * k2))
    got = {k: p for k, p in got.items() if p}
    want = {k: p for k, p in T.items() if p}
    if got != want:
        raise AssertionError("T != dd R after rescaling")
    return {"R": R_scaled, "constant": str(constant)}
