"""Quantum-gauge extensions: the extended space H-bullet with Q = d + A and
the Theorem-5 verifier; the Hochschild-cochain extension C(U, H) with the
degree-0 filtration of Theorem 6; and the finite-dimensional spin-1/spin-2
one-particle complexes with their indefinite Gram pairings."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .cosimplicial import BimoduleData, d1 as cosimplicial_d1, hochschild
from .fields import QQ, check_assumptions, q_factorial, rat
from .graded import GradedNComplex, graded_homology
from .linalg import (
    Echelon,
    ExactMatrix,
    image_basis,
    index_tuple,
    intersection,
    kernel_basis,
    kron,
    orbit_span,
    place_blocks,
    quotient_maps,
    rank,
    restrict,
)
from .ndiff import NDiffModule, homology


class GaugeInstance:
    """(H, A, H_I, q): A^N = 0, H_I stable under A, q^2 a primitive N-th
    root of unity, all validated here; ``extend`` and ``GaugeCochains``
    rely on them without checking again."""

    def __init__(self, N, A, HI, q):
        self.N = N
        self.A = A
        self.HI = HI
        self.q = q
        self.field = A.field
        self.dim = A.nrows
        self.validate()

    def validate(self):
        """Check the hypotheses and keep A restricted to H_I, in H_I
        coordinates, for ``restricted_module``."""
        f = self.field
        if check_assumptions(f.mul(self.q, self.q), self.N, f) != "A1":
            raise ValueError("q^2 must be a primitive N-th root of unity")
        if not self.A.power(self.N).is_zero():
            raise ValueError("A^N != 0")
        self.A_HI = restrict(self.A, self.HI, self.HI)
        if self.A_HI is None:
            raise ValueError("H_I is not A-stable")
        return True

    def restricted_module(self):
        """(H_I, A restricted) as an N-differential module in H_I coords."""
        return NDiffModule(self.N, self.A_HI)

    def to_json(self):
        return {
            "N": self.N,
            "field": self.field.to_json(),
            "A": self.A.to_json(),
            "HI_basis": self.HI.basis.to_json(),
            "q": self.field.to_str(self.q),
        }

    @staticmethod
    def from_json(obj):
        from .fields import Field, check_keys

        check_keys(obj, "a gauge instance", ("N", "field", "A", "HI_basis", "q"))
        N = obj["N"]
        if not isinstance(N, int) or isinstance(N, bool) or N < 2:
            raise ValueError(f"gauge instance N must be an int >= 2, got {N!r}")
        if not isinstance(obj["q"], str):
            raise ValueError(f"gauge instance q must be a scalar string, got {obj['q']!r}")
        f = Field.from_json(obj["field"])
        A = ExactMatrix.from_json(obj["A"], field=f)
        basis = ExactMatrix.from_json(obj["HI_basis"], field=f)
        if A.nrows != A.ncols or basis.nrows != A.nrows:
            raise ValueError(
                f"A must be square and HI_basis must have its {A.nrows} rows, got "
                f"A {A.nrows}x{A.ncols} and HI_basis {basis.nrows}x{basis.ncols}"
            )
        HI = image_basis(basis)
        if HI.dim != basis.ncols:
            raise ValueError(f"HI_basis columns must be linearly independent, "
                             f"got rank {HI.dim} for {basis.ncols} columns")
        return GaugeInstance(N, A, HI, f.parse(obj["q"]))


@dataclass
class ExtendedSpace:
    """H-bullet = H + (H/H_I)^(N-1) with d, the A-extension and Q = d + A."""

    instance: GaugeInstance
    proj: ExactMatrix      # H -> H/H_I
    sect: ExactMatrix      # section
    d: ExactMatrix
    A: ExactMatrix
    Q: NDiffModule
    offsets: list
    dims: list


def extend(G):
    """Build H-bullet.  ``GaugeInstance`` validated A^N = 0, A H_I <= H_I and
    (A1); with one certificate at level 0 they give Theorem 5's hypotheses:

    - Lemma 12: proj sect = I, proj H_I = 0 and dim H/H_I + dim H_I = h make
      proj onto with kernel H_I, so (H-bullet, d) is H_I in degree 0 plus N
      copies of H/H_I joined by identities: H^n_(k) = 0 for n >= 1 and
      H^0_(k) = H_I.  This certifies the computed proj.
    - A d = q^2 d A: only block (1, 0) is not q^(2(n+1)) Abar on both sides;
      it is q^2 (Abar proj = proj G.A), true since sect proj v - v lies in
      ker proj = H_I, which A keeps.
    - A^N = 0: Abar^N proj = proj G.A^N = 0, and proj is onto.
    - Q^N = 0: the image chain of ``NDiffModule``, which Theorem 5 reads."""
    f = G.field
    N, h = G.N, G.dim
    q2 = f.mul(G.q, G.q)
    proj, sect = quotient_maps(G.HI)
    kdim = proj.nrows
    if (kdim + G.HI.dim != h or proj @ sect != ExactMatrix.identity(kdim, f)
            or not (proj @ G.HI.basis).is_zero()):
        raise AssertionError("Lemma 12 fails: proj is not onto H/H_I with kernel H_I")
    Abar = proj @ G.A @ sect
    dims = [h] + [kdim] * (N - 1)
    offsets = list(accumulate(dims[:-1], initial=0))
    total = offsets[-1] + dims[-1]
    # the identities H/H_I -> H/H_I of levels 1..N-2 make one diagonal block
    d = place_blocks(total, total, f, [
        (h, 0, proj), (h + kdim, h, ExactMatrix.identity((N - 2) * kdim, f))])
    A = place_blocks(total, total, f, [(0, 0, G.A)] + [
        (offsets[n], offsets[n], Abar.scale(f.pow(q2, n))) for n in range(1, N)])
    Q = NDiffModule(N, d + A)  # Q^N = 0 is read off its image chain
    return ExtendedSpace(G, proj, sect, d, A, Q, offsets, dims)


def theorem5_verify(G):
    """dim H_(k)(H-bullet, Q) = dim H_(k)(H_I, A) for all k, plus the check
    that H_I representatives stay independent modulo B_(k)(Q) = im Q^(N-k):
    image-chain link N-k-1 is the ``Echelon`` of rows that span B_(k)(Q),
    so absorbing the representatives (in level 0) into a fresh ``Echelon``
    on its leads fails exactly when one depends on B_(k)(Q) and those
    before it, i.e. rank [B | reps] < dim B + #reps.  The link itself is
    cached on the module and stays as it is."""
    ext = extend(G)
    N = G.N
    small = G.restricted_module()
    dims_big, dims_small = ext.Q.homology_dims(), small.homology_dims()
    report = {"ok": True, "dims": {}, "N": N, "dim_H": G.dim,
              "dim_HI": G.HI.dim}
    Hs = homology(small)
    images = ext.Q.image_chain()
    for k in range(1, N):
        big, small_dim = dims_big[k], dims_small[k]
        report["dims"][k] = (big, small_dim)
        if big != small_dim:
            report["ok"] = False
            continue
        # level-0 coordinates of H-bullet are those of H
        E = Echelon(ext.Q.field, ext.Q.dim, images[N - k - 1].leads)
        reps = (G.HI.basis @ Hs[k].representatives).transpose()
        if not all(E.absorb(cols, vals) is None
                   for cols, vals in reps.rows_sparse()):
            report["ok"] = False
            report["dims"][k] = (big, small_dim, "representatives collapse")
    return report


# -- random instances ----------------------------------------------------------


def random_gauge_instance(field, N, rng, hmax=20):
    """Conjugated nilpotent A with H_I the A-orbit span of a random seed
    subspace (stable by construction), or of e_0 when every seed is zero;
    the field is Q(zeta_2N) and q = zeta."""
    from .ndiff import random_ndiff, random_stable_subspace

    h = rng.randint(3, hmax)
    amb, _ = random_ndiff(field, N, h, rng)
    S = random_stable_subspace(amb, rng, nseeds=rng.randint(1, 2))
    if S.dim == 0:
        S = orbit_span(amb.d, [{0: field.one}], N)
    return GaugeInstance(N, amb.d, S, field.zeta())


# -- Hochschild-cochain extension (Theorem 6) ------------------------------------


class GaugeCochains:
    """Truncated C^n(U, H) for n <= n_max with the N-differential d, the
    A-extension by q^(2n), and Q = d + A.  d is the three-term formula
    d(w)(X_0..X_n) = X_0 w(X_1..X_n) + sum_k q^(2k) w(..X_(k-1)X_k..) -
    q^(2n) w(X_0..X_(n-1)) eps(X_n), built as d_1 at q^2 of
    ``hochschild(U, from_left_action(...))``: its cofaces are the action of
    X_0, the middle products and the counit (see ``hochschild``).

    ``GaugeInstance`` validated A^N = 0 and (A1) with this q^2.  With the
    action checked here (the bimodule laws, A commuting with it, the
    invariants equal to H_I), they give the hypotheses on the window:

    - A d = q^2 d A: only action[X_0] acts on the value in d_n.
    - A^N = 0: A is blockdiag(q^(2n) G.A x 1).
    - Q^N = 0: under (A1) the q-binomial formula gives (d + A)^N = d^N + A^N
      (Kapranov, q-alg/9611005; Dubois-Violette and Kerner, Acta Math. Univ.
      Comenianae 65, 1996), and the ``GradedNComplex`` of d_1 certifies
      d^N = 0 inside the window; the stored d^N leaving it is zero."""

    def __init__(self, U, action, G, n_max):
        f = G.field
        self.U = U
        self.G = G
        self.n_max = n_max
        self.field = f
        N = self.N = G.N
        q2 = self.q2 = f.mul(G.q, G.q)
        h, a = G.dim, U.dim
        self.h, self.a = h, a
        # the bimodule checks prove the action unital and multiplicative
        M = BimoduleData.from_left_action(U, h, action)
        for i in range(a):
            if action[i] @ G.A != G.A @ action[i]:
                raise ValueError("A does not commute with the action")
        # invariants must reproduce H_I: the common kernel of the
        # action[i] - eps(e_i) I, stacked
        ident = ExactMatrix.identity(h, f)
        inv = kernel_basis(place_blocks(a * h, h, f, [
            (i * h, 0, action[i] - ident.scale(U.counit.get(i, f.zero)))
            for i in range(a)]))
        if inv.dim != G.HI.dim or not all(
            G.HI.contains(c) for c in inv.basis.columns()
        ):
            raise ValueError("invariant subspace does not match H_I")
        self.action = action
        self.dims = [h * a**n for n in range(n_max + 1)]
        self.offsets = list(accumulate(self.dims[:-1], initial=0))
        self.total = self.offsets[-1] + self.dims[-1]
        # assemble via the Hochschild cosimplicial module with trivial
        # right action, then d_1 at q^2
        self.cosimplicial = hochschild(U, M, n_max)
        self.dcx = cosimplicial_d1(self.cosimplicial, q2, N)
        offs = self.offsets
        self.d = place_blocks(self.total, self.total, f, [
            (offs[n + 1], offs[n], self.dcx.maps[n]) for n in range(n_max)])
        self.A = place_blocks(self.total, self.total, f, [
            (offs[n], offs[n],
             kron(G.A.scale(f.pow(q2, n)), ExactMatrix.identity(a**n, f)))
            for n in range(n_max + 1)])
        self.Q = self.d + self.A

    # -- evaluation ------------------------------------------------------

    def evaluate(self, vec, level, args):
        """omega(X_1..X_level) for args given as U coordinate dicts."""
        f, a = self.field, self.a
        out = {}
        off = self.offsets[level]
        for idx, v in vec.items():
            if not off <= idx < off + self.dims[level]:
                continue
            mu, t = divmod(idx - off, a**level)
            coeff = v
            for pos, digit in enumerate(index_tuple(t, a, level)):
                coeff = f.mul(coeff, args[pos].get(digit, f.zero))
                if f.is_zero(coeff):
                    break
            else:
                f.accumulate(out, mu, coeff)
        return out

    def prop8_check(self):
        """The d-span of H inside C(U, H) realizes H-bullet degreewise:
        dimension h at level 0 and h - dim H_I at each level 1..N-1."""
        f = self.field
        h, kdim = self.h, self.h - self.G.HI.dim
        # level 0 of C(U, H) is H itself: its coordinates come first
        cols = [{i: f.one} for i in range(h)]
        span = image_basis(
            ExactMatrix.from_columns(cols, self.total, f)
        )
        if span.dim != h:
            return {"ok": False, "level": 0, "dim": span.dim, "want": h}
        for n in range(1, self.N):
            cols = [self.d.apply(c) for c in cols]
            span_n = image_basis(
                ExactMatrix.from_columns(cols, self.total, f)
            )
            if span_n.dim != kdim:
                return {"ok": False, "level": n, "dim": span_n.dim,
                        "want": kdim}
        return {"ok": True}


def lemma15_check(C, rng=None):
    """d^n Psi(1,..,1,X) = [n]_(q^2)! d Psi(X) for Psi in H, n <= N-1,
    certified on the unit vectors Psi = e_i of H.

    Both sides are linear in Psi: the left is an evaluation of d^n Psi, the
    right a fixed multiple of an evaluation of d Psi.  So the identity holds
    for every Psi exactly when it holds on a basis of H; that is h checks
    per n and X.  ``rng`` belongs to the earlier random-Psi check; it is
    accepted for the callers still written against it and never read."""
    f = C.field
    unit = {i: v for i, v in C.U.unit.items()}
    for i in range(C.h):
        psi = {i: f.one}
        dpsi = C.d.apply(psi)
        for n in range(1, C.N):
            vec = psi
            for _ in range(n):
                vec = C.d.apply(vec)
            for xi in range(C.a):
                X = {xi: f.one}
                lhs = C.evaluate(vec, n, [unit] * (n - 1) + [X])
                base = C.evaluate(dpsi, 1, [X])
                coeff = q_factorial(n, C.q2, f)
                rhs = {
                    j: f.mul(coeff, v)
                    for j, v in base.items()
                    if not f.is_zero(f.mul(coeff, v))
                }
                if lhs != rhs:
                    return False
    return True


# -- Theorem 6: the degree-0 filtration -------------------------------------


def filtration_f0_dim(C, k):
    """dim F^0 H_(k)(C(U,H), Q) = dim(V) - dim(V cap B) where V =
    ker(Q^k) cap C^0 and B = im(Q^(N-k)) from sources of level
    <= n_max - (N-k).

    V is exact (Q^k never lowers levels) once level k is in the window, and
    B needs the level-0 sources, so a window with n_max < max(k, N - k) is
    refused.  V cap B is pinned by a sandwich: explicit preimages from low
    levels give a lower bound, left-functional certificates supported on
    low levels give an upper bound, and the full windowed solve decides any
    remainder."""
    f = C.field
    N = C.N
    P = N - k
    h = C.h
    if C.n_max < max(k, P):
        raise ValueError(
            f"filtration_f0_dim needs n_max >= k = {k} (V = ker Q^k on level 0) "
            f"and n_max >= N - k = {P} (sources of B), got n_max = {C.n_max}")
    # V = ker(Q^k) on level-0 sources
    V = kernel_basis(C.Q.power(k).take_columns(range(h)))  # in H-coordinates
    if V.dim == 0:
        return 0, {"V": 0, "VB": 0, "method": "empty"}
    # shortcut: level-0 part of Q^P x is A^P x_0
    Apow = C.G.A.power(P)
    if Apow.is_zero():
        return V.dim, {"V": V.dim, "VB": 0, "method": "A^P = 0"}
    W = intersection(V, image_basis(Apow))
    if W.dim == 0:
        return V.dim, {"V": V.dim, "VB": 0, "method": "no candidates"}

    L_max = C.n_max - P
    QP = C.Q.power(P)

    def win_dim(L):
        """dim of {w in W : w in Q^P(sources of level <= L)} (w viewed at
        level 0 of the big space)."""
        src_top = C.offsets[L] + C.dims[L]
        # [Q^P on the sources | -W at level 0]
        K = kernel_basis(place_blocks(C.total, src_top + W.dim, f, [
            (0, 0, QP.take_columns(range(src_top))),
            (0, src_top, W.basis.scale(f.neg(f.one)))]))
        # the W-coordinates of the kernel vectors: their rows from src_top on
        w_rows = K.basis.transpose().take_columns(range(src_top, src_top + W.dim))
        return image_basis(w_rows.transpose())

    def cert_upper(c):
        """upper bound: W cap (common kernel of certified functionals with
        support on levels <= c)."""
        blk = C.offsets[c] + C.dims[c]
        # the left kernel of the leading blk x blk block of Q^P
        left = kernel_basis(
            QP.take_columns(range(blk)).transpose().take_columns(range(blk)))
        # the functionals restricted to level 0, on W
        L0 = left.basis.transpose().take_columns(range(h)) @ W.basis
        return kernel_basis(L0)  # in W-coordinates

    lower = win_dim(0)
    for c in range(1, min(2, C.n_max) + 1):
        upper = cert_upper(c)
        if lower.dim == upper.dim:
            return V.dim - lower.dim, {
                "V": V.dim, "VB": lower.dim,
                "method": f"sandwich (certificates at level {c})",
            }
    # the window loop runs only when n_max >= 1, so ``upper`` is the last
    # certificate above, at level min(2, n_max); it does not depend on L
    for L in range(1, L_max + 1):
        lower = win_dim(L)
        if lower.dim == upper.dim:
            return V.dim - lower.dim, {
                "V": V.dim, "VB": lower.dim, "method": f"sandwich (L={L})",
            }
    # fall back to the full windowed answer, the loop's last window L_max
    return V.dim - lower.dim, {
        "V": V.dim, "VB": lower.dim, "method": "full window",
    }


def theorem6_verify(U, action, G, stability=True):
    """dim F^0 H_(k) = dim H_(k)(H_I, A) for every k in the window
    n_max = N + k, with window-stability under n_max -> n_max + 1, plus the
    plain linear independence of the H_I representatives (not their
    independence modulo V cap B).  Windows N + k + 1 and N + (k + 1)
    coincide, so each window's cochains are built once per call."""
    N = G.N
    small = G.restricted_module()
    dims_small = small.homology_dims()
    report = {"ok": True, "per_k": {}}
    Hs = homology(small)
    cochains = cache(lambda nm: GaugeCochains(U, action, G, nm))
    for k in range(1, N):
        nm = N + k
        C = cochains(nm)
        dim_f0, info = filtration_f0_dim(C, k)
        want = dims_small[k]
        entry = {"F0": dim_f0, "H_(k)(HI,A)": want, "window": nm,
                 "method": info["method"]}
        if dim_f0 != want:
            report["ok"] = False
        if stability:
            C2 = cochains(nm + 1)
            dim2, _ = filtration_f0_dim(C2, k)
            entry["F0_at_window+1"] = dim2
            if dim2 != dim_f0:
                report["ok"] = False
        # the H_(k)(H_I, A) representatives as columns in H, one product;
        # only their rank in H is checked, which does not show that they
        # stay independent modulo V cap B
        reps = G.HI.basis @ Hs[k].representatives
        if rank(reps) != reps.ncols:
            report["ok"] = False
            entry["independence"] = "failed"
        report["per_k"][k] = entry
    return report


# -- spin-1 / spin-2 one-particle complexes ----------------------------------


METRIC = (1, -1, -1, -1)


def _check_cone(p):
    if len(p) != 4:
        raise ValueError(f"p must have 4 components, got {len(p)}")
    if sum(METRIC[m] * p[m] * p[m] for m in range(4)) != 0:
        raise ValueError("p is not on the light cone")
    if p[0] <= 0:
        raise ValueError("p_0 must be positive")


def _lower(p):
    return [rat(METRIC[m]) * rat(p[m]) for m in range(4)]


def spin1_complex(p, alpha, field):
    """C^(-1) + C^0 + C^1 with delta(w-) = p_mu eps^mu,
    delta(eps^mu) = alpha p^mu w+, delta(w+) = 0, plus the indefinite Gram
    pairing making delta hermitian."""
    _check_cone(p)
    f = field
    if f.is_zero(alpha):
        raise ValueError("alpha must be nonzero")
    p_up = [f.from_rat(x) for x in p]
    p_dn = [f.from_rat(x) for x in _lower(p)]
    # basis: [w-, eps^0..eps^3, w+]
    dims = {-1: 1, 0: 4, 1: 1}
    m0 = ExactMatrix.from_columns(
        [{m: p_dn[m] for m in range(4) if not f.is_zero(p_dn[m])}], 4, f
    )
    m1 = ExactMatrix.from_columns(
        [{0: f.mul(alpha, p_up[m])} for m in range(4)], 1, f
    )
    C = GradedNComplex(2, f, dims, {-1: m0, 0: m1})
    # Gram matrix on the ordered basis [w-, eps^0.., w+]
    g = {}
    for m in range(4):
        g[(1 + m, 1 + m)] = f.from_rat(-METRIC[m])
    g[(0, 5)] = f.neg(f.inv(alpha))
    g[(5, 0)] = f.conj(f.neg(f.inv(alpha)))
    G = ExactMatrix(6, 6, f, g)
    return C, G


def spin2_complex(p, alpha, field):
    """The 10-dimensional symmetric-tensor analog."""
    _check_cone(p)
    f = field
    if f.is_zero(alpha):
        raise ValueError("alpha must be nonzero")
    p_up = [f.from_rat(x) for x in p]
    p_dn = [f.from_rat(x) for x in _lower(p)]
    sym = [(m, n) for m in range(4) for n in range(m, 4)]
    sidx = {mn: i for i, mn in enumerate(sym)}
    dims = {-1: 4, 0: 10, 1: 4}
    # delta w-(mu) = sum_nu p_nu eps^(mu nu) - (1/2) p^mu sum_a g_aa eps^(aa)
    cols = []
    for mu in range(4):
        col = {}
        for nu in range(4):
            i = sidx[(min(mu, nu), max(mu, nu))]
            f.accumulate(col, i, p_dn[nu])
        for a in range(4):
            i = sidx[(a, a)]
            coeff = f.mul(
                f.from_rat(rat(-METRIC[a], 2)), p_up[mu]
            )
            f.accumulate(col, i, coeff)
        cols.append(col)
    m0 = ExactMatrix.from_columns(cols, 10, f)
    # delta eps^(mu nu) = alpha (p^mu w+^nu + p^nu w+^mu)
    cols = []
    for (m, n) in sym:
        col = {}
        f.accumulate(col, n, f.mul(alpha, p_up[m]))
        f.accumulate(col, m, f.mul(alpha, p_up[n]))
        cols.append(col)
    m1 = ExactMatrix.from_columns(cols, 4, f)
    C = GradedNComplex(2, f, dims, {-1: m0, 0: m1})
    # Gram pairing
    g = {}
    for (l, r_), i in sidx.items():
        for (m, n), j in sidx.items():
            val = rat(METRIC[l] if l == m else 0) * rat(METRIC[r_] if r_ == n else 0)
            val = val + rat(METRIC[l] if l == n else 0) * rat(METRIC[r_] if r_ == m else 0)
            val = val / 2
            val = val - rat(METRIC[l] if l == r_ else 0) * rat(METRIC[m] if m == n else 0) / 2
            if val:
                g[(4 + i, 4 + j)] = f.from_rat(val)
    inv2a = f.inv(f.mul(f.from_rat(2), alpha))
    for m in range(4):
        for n in range(4):
            if m == n:
                g[(m, 14 + n)] = f.mul(inv2a, f.from_rat(METRIC[m]))
                g[(14 + n, m)] = f.conj(g[(m, 14 + n)])
    G = ExactMatrix(18, 18, f, g)
    return C, G


def gram_hermitian_check(C, G):
    """<delta x | y> = <x | delta y> with the first slot conjugate-linear."""
    f = C.field
    total = C.total_module()
    delta = total.d
    conj_t = ExactMatrix(
        delta.ncols, delta.nrows, f,
        {(c, r): f.conj(v) for (r, c), v in delta.entries.items()},
    )
    return (conj_t @ G) == (G @ delta)


def spin_complex_report(kind, p, alpha, field):
    builder = spin1_complex if kind == 1 else spin2_complex
    # the GradedNComplex constructor in spin1_complex/spin2_complex
    # certified delta^2 = 0
    C, G = builder(p, alpha, field)
    H = graded_homology(C)
    rep = {
        "delta2_zero": True,
        "hermitian": gram_hermitian_check(C, G),
        "H_dims": {n: H[(n, 1)].dim_H for n in C.degrees()},
    }
    if kind == 2:
        rep["C0"] = C.dims[0]
        rep["Z"] = H[(0, 1)].dim_Z
        rep["B"] = H[(0, 1)].dim_B
    return rep


def two_particle_study(p1, p2, field=QQ):
    """Q_12 = Q(p1) ox 1 + 1 ox Q(p2) on the 16-dimensional two-particle
    space: cube vanishes, square does not, and both generalized homologies
    are 9-dimensional (not 4 = dim H(p1) ox H(p2))."""
    if tuple(p1) == tuple(p2):
        raise ValueError("p1 and p2 must differ")
    _check_cone(p1)
    _check_cone(p2)
    f = field

    def qmat(p):
        p_up = [f.from_rat(x) for x in p]
        p_dn = [f.from_rat(x) for x in _lower(p)]
        ent = {}
        for m in range(4):
            for n in range(4):
                v = f.mul(p_dn[m], p_up[n])
                if not f.is_zero(v):
                    ent[(m, n)] = v
        return ExactMatrix(4, 4, f, ent)

    from .ndiff import green_tensor

    E1 = NDiffModule(2, qmat(p1))
    E2 = NDiffModule(2, qmat(p2))
    T = green_tensor(E1, E2)
    rep = {
        "Q12_squared_nonzero": not T.power(2).is_zero(),
        "Q12_cubed_zero": T.power(3).is_zero(),
        "dims": homology(T).dims(),
        "Z_tensor_dim": (4 - rank(qmat(p1))) * (4 - rank(qmat(p2))),
        "H_tensor_dim": 4,
    }
    rep["ok"] = (
        rep["Q12_squared_nonzero"]
        and rep["Q12_cubed_zero"]
        and rep["dims"][1] == rep["dims"][2] == rep["Z_tensor_dim"] == 9
        and rep["dims"][1] != rep["H_tensor_dim"]
    )
    return rep
