"""Z-graded and Z_N-cyclic N-complexes: graded generalized homology inside
explicit validity windows, the matrix-algebra Z_N example, q-tensor products,
the N = 2 Kunneth check and long exact sequences of graded SES."""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, check_assumptions, q_binomial
from .linalg import (
    ExactMatrix,
    QuotientSpace,
    Subspace,
    image_basis,
    kernel_basis,
    rank,
)
from .ndiff import HomologySlot, NDiffModule, exact_at


class WindowError(ValueError):
    """A graded computation would need degrees outside the stored window."""


class GradedNComplex:
    """Degree-indexed components with degree-1 maps and d^N = 0.

    ``cyclic`` complexes store one period (degrees 0..N-1, maps wrap).
    For Z-graded complexes the ``truncated_below/above`` flags say whether
    the complex continues beyond the stored window (so values there are
    unknown) or is genuinely zero outside.
    """

    def __init__(
        self,
        N,
        field,
        dims,
        maps,
        cyclic=False,
        truncated_below=False,
        truncated_above=False,
        check=True,
        product=None,
    ):
        self.N = N
        self.field = field
        self.cyclic = cyclic
        self.dims = dict(dims)
        self.maps = dict(maps)
        self.truncated_below = truncated_below
        self.truncated_above = truncated_above
        self.product = product  # optional ((a_deg, vec), (b_deg, vec)) -> vec
        self._composites = {}
        if cyclic:
            self.n_min, self.n_max = 0, N - 1
            if set(self.dims) != set(range(N)):
                raise ValueError(f"a cyclic complex needs dims in degrees 0..{N - 1}")
        else:
            self.n_min = min(self.dims) if self.dims else 0
            self.n_max = max(self.dims) if self.dims else 0
        if check:
            self.validate()

    # -- structure ----------------------------------------------------------

    def dim(self, n):
        if self.cyclic:
            return self.dims[n % self.N]
        if n in self.dims:
            return self.dims[n]
        if n < self.n_min and not self.truncated_below:
            return 0
        if n > self.n_max and not self.truncated_above:
            return 0
        return None  # unknown: truncated

    def map(self, n):
        """d: E^n -> E^(n+1), or None when it crosses a truncated boundary."""
        if self.cyclic:
            return self.maps[n % self.N]
        if n in self.maps:
            return self.maps[n]
        dsrc, dtgt = self.dim(n), self.dim(n + 1)
        if dsrc is None or dtgt is None:
            return None
        return ExactMatrix.zeros(dtgt, dsrc, self.field)

    def composite(self, n, k):
        """d^k: E^n -> E^(n+k), or None if it is not determined.

        Memoized (``maps`` is fixed after construction): d^k is
        map(n+k-1) @ d^(k-1), d^1 is the map itself, and the identity is
        formed only for k = 0.  ``validate`` certifies d^N = 0 on these
        products, which ``graded_homology`` then reuses."""
        key = (n, k)
        if key not in self._composites:
            if self.dim(n) is None:
                acc = None
            elif k == 0:
                acc = ExactMatrix.identity(self.dim(n), self.field)
            elif k == 1:
                acc = self.map(n)
            else:
                prev, M = self.composite(n, k - 1), self.map(n + k - 1)
                acc = None if prev is None or M is None else M @ prev
            self._composites[key] = acc
        return self._composites[key]

    def validate(self):
        for n, M in self.maps.items():
            tgt = (n + 1) % self.N if self.cyclic else n + 1
            if M.nrows != self.dims.get(tgt, 0) or M.ncols != self.dims.get(n, 0):
                raise ValueError(f"map at degree {n} has wrong shape")
        degrees = range(self.N) if self.cyclic else range(self.n_min, self.n_max + 1)
        for n in degrees:
            comp = self.composite(n, self.N)
            if comp is not None and not comp.is_zero():
                raise ValueError(f"d^{self.N} != 0 starting at degree {n}")
        return True

    def degrees(self):
        return sorted(self.dims)

    # -- conversions ---------------------------------------------------------

    def total_module(self):
        """Forget the grading.  Needs the complex to be fully known."""
        if not self.cyclic and (self.truncated_below or self.truncated_above):
            raise WindowError("cannot total a truncated complex")
        degs = self.degrees()
        offs = {}
        off = 0
        for n in degs:
            offs[n] = off
            off += self.dims[n]
        f = self.field
        ent = {}
        for n in degs:
            M = self.map(n)
            if M is None or M.is_zero():
                continue
            tgt = (n + 1) % self.N if self.cyclic else n + 1
            if tgt not in offs:
                continue
            for (r, c), v in M.entries.items():
                ent[(offs[tgt] + r, offs[n] + c)] = v
        d = ExactMatrix(off, off, f, ent, _clean=False)
        return NDiffModule(self.N, d, check=False)

    def to_zgraded(self, lo, hi):
        """Pullback of a cyclic complex along Z -> Z_N (truncated both ways)."""
        if not self.cyclic:
            raise ValueError("to_zgraded needs a cyclic complex")
        dims = {n: self.dims[n % self.N] for n in range(lo, hi + 1)}
        maps = {n: self.maps[n % self.N] for n in range(lo, hi)}
        return GradedNComplex(
            self.N, self.field, dims, maps,
            truncated_below=True, truncated_above=True, check=False,
        )

    def to_json(self):
        return {
            "N": self.N,
            "field": self.field.to_json(),
            "degrees": [{"n": n, "dim": self.dims[n]} for n in self.degrees()],
            "maps": [
                {"from_degree": n, "matrix": M.to_json()}
                for n, M in sorted(self.maps.items())
            ],
            "cyclic": self.cyclic,
            "truncated_below": self.truncated_below,
            "truncated_above": self.truncated_above,
        }

    @staticmethod
    def from_json(obj):
        f = Field.from_json(obj["field"])
        dims = {e["n"]: e["dim"] for e in obj["degrees"]}
        maps = {
            e["from_degree"]: ExactMatrix.from_json(e["matrix"], field=f)
            for e in obj["maps"]
        }
        return GradedNComplex(
            obj["N"], f, dims, maps,
            cyclic=obj.get("cyclic", False),
            truncated_below=obj.get("truncated_below", False),
            truncated_above=obj.get("truncated_above", False),
        )

    def __repr__(self):
        kind = "cyclic" if self.cyclic else f"[{self.n_min},{self.n_max}]"
        return f"GradedNComplex(N={self.N}, {kind}, dims={self.dims})"


class GradedHomology:
    """H^n_(m) for degrees where the window determines them."""

    def __init__(self, complex_):
        self.complex = complex_
        self.slots = {}

    def valid(self, n, m):
        return (n, m) in self.slots

    def __getitem__(self, nm):
        if nm not in self.slots:
            raise WindowError(
                f"H^{nm[0]}_({nm[1]}) is indeterminate under the stored window"
            )
        return self.slots[nm]

    def dims(self, m):
        return {n: s.dim_H for (n, mm), s in sorted(self.slots.items()) if mm == m}


def graded_homology(C, degrees=None, ms=None):
    """Compute H^n_(m) wherever both d^m out of n and d^(N-m) into n are
    determined; degrees outside that window are simply absent."""
    H = GradedHomology(C)
    N = C.N
    deg_list = degrees if degrees is not None else C.degrees()
    m_list = ms if ms is not None else range(1, N)
    for n in deg_list:
        if C.dim(n) is None:
            continue
        for m in m_list:
            out = C.composite(n, m)
            if out is None:
                continue
            src = C.composite(n + m - N, N - m)
            if src is None:
                continue
            H.slots[(n, m)] = HomologySlot(kernel_basis(out), image_basis(src))
    return H


def check_graded_q_leibniz(C, q):
    """d(ab) = d(a) b + q^a a d(b) on all homogeneous basis pairs; needs
    ``C.product``."""
    if C.product is None:
        raise ValueError("complex carries no product")
    f = C.field
    for a_deg in C.degrees():
        for b_deg in C.degrees():
            tgt = a_deg + b_deg
            if C.cyclic:
                tgt %= C.N
            else:
                # all three products and their differentials must stay stored
                if tgt + 1 > C.n_max or a_deg + 1 > C.n_max or b_deg + 1 > C.n_max:
                    continue
            for ia in range(C.dims[a_deg]):
                va = {ia: f.one}
                da = C.map(a_deg).apply(va)
                for ib in range(C.dims[b_deg]):
                    vb = {ib: f.one}
                    db = C.map(b_deg).apply(vb)
                    ab = C.product(a_deg, va, b_deg, vb)
                    lhs = C.map(tgt).apply(ab)
                    rhs1 = C.product(
                        (a_deg + 1) % C.N if C.cyclic else a_deg + 1, da, b_deg, vb
                    )
                    rhs2 = C.product(
                        a_deg, va, (b_deg + 1) % C.N if C.cyclic else b_deg + 1, db
                    )
                    qa = f.pow(q, a_deg % C.N if C.cyclic else a_deg)
                    rhs = dict(rhs1)
                    for i, v in rhs2.items():
                        f.accumulate(rhs, i, f.mul(qa, v))
                    if lhs != rhs:
                        return False
    return True


# -- the Z_N matrix-algebra example ----------------------------------------


class MatrixAlgebraComplex:
    """M_N(k) graded by k - l mod N with d(A) = eA - q^a A e."""

    def __init__(self, N, q, lambdas, field):
        if check_assumptions(q, N, field) != "A1":
            raise ValueError("(field, q, N) must satisfy (A1)")
        if len(lambdas) != N:
            raise ValueError("need N coefficients lambda_1..lambda_N")
        self.N = N
        self.q = q
        self.field = field
        self.lambdas = list(lambdas)
        # basis of degree a: units E^k_l with k - l = a mod N, l = 1..N
        self.basis = {
            a: [((a + l - 1) % N + 1, l) for l in range(1, N + 1)] for a in range(N)
        }
        self.index = {
            a: {kl: i for i, kl in enumerate(self.basis[a])} for a in range(N)
        }
        f = field
        dims = {a: N for a in range(N)}
        maps = {}
        for a in range(N):
            ent = {}
            for i, (k, l) in enumerate(self.basis[a]):
                for (k2, l2), coeff in self._d_unit(k, l, a):
                    j = self.index[(a + 1) % N][(k2, l2)]
                    f.accumulate(ent, (j, i), coeff)
            maps[a] = ExactMatrix(N, N, f, ent, _clean=False)
        self.complex = GradedNComplex(
            N, f, dims, maps, cyclic=True, product=self._product
        )

    def _lam(self, i):
        # lambda index is 1-based and cyclic
        return self.lambdas[(i - 1) % self.N]

    def _left_e(self, k, l):
        """e * E^k_l = lambda_(l-1) E^k_(l-1), cyclically."""
        l2 = l - 1 if l > 1 else self.N
        return (k, l2), self._lam(l - 1 if l > 1 else self.N)

    def _right_e(self, k, l):
        """E^k_l * e = lambda_k E^(k+1)_l, cyclically."""
        k2 = k + 1 if k < self.N else 1
        return (k2, l), self._lam(k)

    def _d_unit(self, k, l, a):
        f = self.field
        (kl1, c1) = self._left_e(k, l)
        (kl2, c2) = self._right_e(k, l)
        qa = f.pow(self.q, a)
        return [(kl1, c1), (kl2, f.neg(f.mul(qa, c2)))]

    def _product(self, a_deg, va, b_deg, vb):
        """E^k_l E^r_s = delta_{k,s} E^r_l, extended bilinearly."""
        f = self.field
        out = {}
        tgt = (a_deg + b_deg) % self.N
        for ia, ca in va.items():
            k, l = self.basis[a_deg % self.N][ia]
            for ib, cb in vb.items():
                r, s = self.basis[b_deg % self.N][ib]
                if k != s:
                    continue
                j = self.index[tgt][(r, l)]
                f.accumulate(out, j, f.mul(ca, cb))
        return out

    def e_vector(self):
        """e = lambda_1 E^2_1 + ... + lambda_N E^1_N as a degree-1 vector."""
        out = {}
        for l in range(1, self.N + 1):
            k = l + 1 if l < self.N else 1
            out[self.index[1][(k, l)]] = self._lam(l)
        return {i: c for i, c in out.items() if not self.field.is_zero(c)}

    def e_power_is_scalar(self):
        """e^N = lambda_1 ... lambda_N * identity."""
        f = self.field
        v = self.e_vector()
        deg = 1
        for _ in range(self.N - 1):
            v = self._product(deg, v, 1, self.e_vector())
            deg += 1
        # identity of M_N(k) in degree 0: sum over E^n_n
        coeff = f.one
        for lam in self.lambdas:
            coeff = f.mul(coeff, lam)
        expect = {self.index[0][(n, n)]: coeff for n in range(1, self.N + 1)}
        expect = {i: c for i, c in expect.items() if not f.is_zero(c)}
        return v == expect

    def lemma4_homotopy(self):
        """h = (1 - q)^-1 (prod lambda)^-1 e^(N-1) * (left multiplication),
        satisfying h d - q d h = Id on the total module."""
        f = self.field
        coeff = f.one
        for lam in self.lambdas:
            coeff = f.mul(coeff, lam)
        scale = f.inv(f.mul(f.sub(f.one, self.q), coeff))
        # e^(N-1) as a vector in degree N-1
        v = self.e_vector()
        deg = 1
        for _ in range(self.N - 2):
            v = self._product(deg, v, 1, self.e_vector())
            deg += 1
        # left multiplication by e^(N-1), degree N-1, as a total-space matrix
        total = self.complex.total_module()
        offs = {a: a * self.N for a in range(self.N)}
        ent = {}
        for a in range(self.N):
            tgt = (a + self.N - 1) % self.N
            for i in range(self.N):
                col = self._product(self.N - 1, v, a, {i: f.one})
                for j, c in col.items():
                    ent[(offs[tgt] + j, offs[a] + i)] = f.mul(scale, c)
        h = ExactMatrix(total.dim, total.dim, f, ent)
        return total, h


def matrix_algebra_complex(N, q, lambdas, field):
    return MatrixAlgebraComplex(N, q, lambdas, field)


# -- tensor products ---------------------------------------------------------


class TensorIndex:
    """Index bookkeeping for (C' ox C'')^n = sum over r+s=n of C'^r ox C''^s."""

    def __init__(self, C1, C2, cyclic):
        self.C1, self.C2, self.cyclic = C1, C2, cyclic
        self.layout = {}
        self.dims = {}
        if cyclic:
            degrees = [(r, s) for r in range(C1.N) for s in range(C2.N)]
            tgt = lambda r, s: (r + s) % C1.N
        else:
            degrees = [(r, s) for r in C1.degrees() for s in C2.degrees()]
            tgt = lambda r, s: r + s
        for r, s in degrees:
            n = tgt(r, s)
            block = self.layout.setdefault(n, {})
            block[(r, s)] = self.dims.get(n, 0)
            self.dims[n] = self.dims.get(n, 0) + C1.dims[r] * C2.dims[s]

    def pos(self, n, r, s, i, j):
        return self.layout[n][(r, s)] + i * self.C2.dims[s] + j


def q_tensor(C1, C2, q, validate_power_formula=True):
    """Tensor product with d(x ox y) = d'x ox y + q^deg(x) x ox d''y.

    Both factors must be fully known (no truncation) over the same field and
    with (field, q, N) satisfying (A1)."""
    if C1.field != C2.field:
        raise ValueError("field mismatch")
    if C1.N != C2.N:
        raise ValueError("N mismatch")
    N, f = C1.N, C1.field
    if check_assumptions(q, N, f) != "A1":
        raise ValueError("(field, q, N) must satisfy (A1)")
    if C1.cyclic != C2.cyclic:
        raise ValueError("cannot mix cyclic and Z-graded factors")
    for C in (C1, C2):
        if not C.cyclic and (C.truncated_below or C.truncated_above):
            raise WindowError("q_tensor needs fully known factors")
    idx = TensorIndex(C1, C2, C1.cyclic)
    maps = {}
    for n in sorted(idx.dims):
        tgt = (n + 1) % N if C1.cyclic else n + 1
        if tgt not in idx.dims:
            continue
        ent = {}
        for (r, s), off in idx.layout[n].items():
            d1 = C1.map(r)
            d2 = C2.map(s)
            qr = f.pow(q, r % N if C1.cyclic else r)
            r1 = (r + 1) % N if C1.cyclic else r + 1
            s1 = (s + 1) % N if C1.cyclic else s + 1
            for i in range(C1.dims[r]):
                for j in range(C2.dims[s]):
                    col = off + i * C2.dims[s] + j
                    if d1 is not None and (r1, s) in idx.layout.get(tgt, {}):
                        for i2, v in d1.column(i).items():
                            row = idx.pos(tgt, r1, s, i2, j)
                            f.accumulate(ent, (row, col), v)
                    if d2 is not None and (r, s1) in idx.layout.get(tgt, {}):
                        for j2, v in d2.column(j).items():
                            row = idx.pos(tgt, r, s1, i, j2)
                            f.accumulate(ent, (row, col), f.mul(qr, v))
        maps[n] = ExactMatrix(idx.dims[tgt], idx.dims[n], f, ent, _clean=False)
    dims = dict(idx.dims)
    T = GradedNComplex(N, f, dims, maps, cyclic=C1.cyclic)
    if validate_power_formula:
        _validate_q_power_formula(C1, C2, q, T, idx)
    return T


def _validate_q_power_formula(C1, C2, q, T, idx):
    """d^n(x ox y) = sum_m q^(deg(x)(n-m)) [n m]_q d'^m x ox d''^(n-m) y for
    n <= N, on every basis tensor."""
    N, f = T.N, T.field
    for n_deg in sorted(idx.layout):
        for (r, s), off in idx.layout[n_deg].items():
            for i in range(C1.dims[r]):
                for j in range(C2.dims[s]):
                    vec = {off + i * C2.dims[s] + j: f.one}
                    for n in range(1, N + 1):
                        lhs_mat = T.composite(n_deg, n)
                        if lhs_mat is None:
                            continue
                        lhs = lhs_mat.apply(vec)
                        rhs = {}
                        for m in range(n + 1):
                            cm1 = C1.composite(r, m)
                            cm2 = C2.composite(s, n - m)
                            if cm1 is None or cm2 is None:
                                continue
                            xs = cm1.apply({i: f.one})
                            ys = cm2.apply({j: f.one})
                            if not xs or not ys:
                                continue
                            tgt = (n_deg + n) % N if T.cyclic else n_deg + n
                            r2 = (r + m) % N if T.cyclic else r + m
                            s2 = (s + n - m) % N if T.cyclic else s + n - m
                            if (r2, s2) not in idx.layout.get(tgt, {}):
                                continue
                            coeff = f.mul(
                                f.pow(q, (r % N if T.cyclic else r) * (n - m)),
                                q_binomial(n, m, q, f),
                            )
                            if f.is_zero(coeff):
                                continue
                            for i2, xv in xs.items():
                                for j2, yv in ys.items():
                                    row = idx.pos(tgt, r2, s2, i2, j2)
                                    f.accumulate(rhs, row, f.mul(coeff, f.mul(xv, yv)))
                        if lhs != rhs:
                            raise AssertionError(
                                "q-binomial power formula failed at "
                                f"degree {n_deg}, block ({r},{s}), power {n}"
                            )


def kunneth_check(C1, C2):
    """dim H^n(C' ox C'') = sum_{r+s=n} dim H^r(C') dim H^s(C'') for N = 2."""
    if C1.N != 2 or C2.N != 2:
        raise ValueError("Kunneth check is for N = 2 only")
    f = C1.field
    minus_one = f.neg(f.one)
    T = q_tensor(C1, C2, minus_one, validate_power_formula=False)
    H1 = graded_homology(C1)
    H2 = graded_homology(C2)
    HT = graded_homology(T)
    report = {"ok": True, "degrees": {}}
    for n in sorted(T.degrees()):
        if not HT.valid(n, 1):
            continue
        lhs = HT[(n, 1)].dim_H
        rhs = 0
        for r in C1.degrees():
            s = n - r
            if s in C2.dims and H1.valid(r, 1) and H2.valid(s, 1):
                rhs += H1[(r, 1)].dim_H * H2[(s, 1)].dim_H
        report["degrees"][n] = (lhs, rhs)
        if lhs != rhs:
            report["ok"] = False
    return report


# -- graded short exact sequences -------------------------------------------


@dataclass
class GradedSES:
    """0 -> E -> F -> G -> 0 of graded N-complexes, maps given per degree."""

    E: GradedNComplex
    F: GradedNComplex
    G: GradedNComplex
    phi: dict  # degree -> ExactMatrix
    psi: dict

    def validate(self):
        for n in self.F.degrees():
            phi, psi = self.phi.get(n), self.psi.get(n)
            dE = self.E.dims.get(n, 0)
            dF = self.F.dims.get(n, 0)
            dG = self.G.dims.get(n, 0)
            if phi is None or psi is None:
                if dE or dG:
                    raise ValueError(f"missing maps at degree {n}")
                continue
            if rank(phi) != dE:
                raise ValueError(f"phi not injective at degree {n}")
            if rank(psi) != dG:
                raise ValueError(f"psi not surjective at degree {n}")
            if dE + dG != dF:
                raise ValueError(f"not exact at degree {n}")
            if not (psi @ phi).is_zero():
                raise ValueError(f"psi o phi != 0 at degree {n}")
        for n in self.F.degrees():
            nn = (n + 1) % self.F.N if self.F.cyclic else n + 1
            if nn not in self.F.dims:
                continue
            if self.E.map(n) is not None and n in self.phi and nn in self.phi:
                if (self.phi[nn] @ self.E.map(n)) != (self.F.map(n) @ self.phi[n]):
                    raise ValueError(f"phi not a chain map at degree {n}")
            if self.G.map(n) is not None and n in self.psi and nn in self.psi:
                if (self.psi[nn] @ self.F.map(n)) != (self.G.map(n) @ self.psi[n]):
                    raise ValueError(f"psi not a chain map at degree {n}")
        return True


def graded_connecting(ses, HGs, HEs, j, m):
    """partial: H^j_(m)(G) -> H^(j+m)_(N-m)(E) by the lifting recipe."""
    from .linalg import EchelonSolver

    N = ses.F.N
    tgt_deg = (j + m) % N if ses.F.cyclic else j + m
    slotG = HGs[(j, m)]
    slotE = HEs[(tgt_deg, N - m)]
    psi_sol = EchelonSolver(ses.psi[j])
    phi_sol = EchelonSolver(ses.phi[tgt_deg])
    dFm = ses.F.composite(j, m)

    def lift(z):
        y = psi_sol.solve(z)
        if y is None:
            raise AssertionError("psi must be surjective")
        x = phi_sol.solve(dFm.apply(y))
        if x is None:
            raise AssertionError("lift image left im(phi)")
        return x

    return slotG.map_to(slotE, lift)


def les_check(ses, n, p):
    """Exactness of the long sequence (S_{n,p}) at every node whose three
    neighbouring homologies lie inside the validity windows."""
    ses.validate()
    N = ses.F.N
    HE = graded_homology(ses.E)
    HF = graded_homology(ses.F)
    HG = graded_homology(ses.G)

    # build the node list: (degree, m, space-tag) repeating with period N
    nodes = []
    if ses.F.cyclic:
        r_range = range(0, 1)
    else:
        lo = min(ses.F.degrees())
        hi = max(ses.F.degrees())
        r_range = range((lo - p - N) // N, (hi - p) // N + 2)
    for r in r_range:
        base = N * r + p
        nodes.append((base, n, "E"))
        nodes.append((base, n, "F"))
        nodes.append((base, n, "G"))
        nodes.append((base + n, N - n, "E"))
        nodes.append((base + n, N - n, "F"))
        nodes.append((base + n, N - n, "G"))

    def slot(tag, j, m):
        H = {"E": HE, "F": HF, "G": HG}[tag]
        jj = j % N if ses.F.cyclic else j
        return H.slots.get((jj, m))

    def arrow(idx):
        """Map leaving node idx, or None if not computable."""
        j, m, tag = nodes[idx]
        jj = j % N if ses.F.cyclic else j
        try:
            # phi and psi are looked up per representative: a degree where
            # E and G vanish may carry no maps
            if tag == "E":
                if slot("E", j, m) is None or slot("F", j, m) is None:
                    return None
                return HE.slots[(jj, m)].map_to(
                    HF.slots[(jj, m)], lambda z: ses.phi[jj].apply(z))
            if tag == "F":
                if slot("F", j, m) is None or slot("G", j, m) is None:
                    return None
                return HF.slots[(jj, m)].map_to(
                    HG.slots[(jj, m)], lambda z: ses.psi[jj].apply(z))
            nxt = nodes[(idx + 1) % len(nodes)] if ses.F.cyclic else (
                nodes[idx + 1] if idx + 1 < len(nodes) else None
            )
            if nxt is None:
                return None
            if slot("G", j, m) is None or slot("E", j + m, N - m) is None:
                return None
            return graded_connecting(ses, HG.slots, HE.slots, jj, m)
        except KeyError:
            return None

    checked = 0
    failures = []
    for i in range(len(nodes)):
        prev_i = (i - 1) % len(nodes) if ses.F.cyclic else i - 1
        if prev_i < 0:
            continue
        if not ses.F.cyclic and i + 1 >= len(nodes):
            continue
        j, m, tag = nodes[i]
        s = slot(tag, j, m)
        if s is None:
            continue
        incoming = arrow(prev_i)
        outgoing = arrow(i)
        if incoming is None or outgoing is None:
            continue
        checked += 1
        if not exact_at(incoming, outgoing, s.dim_H):
            failures.append(nodes[i])
    if checked < 6:
        raise WindowError(
            "validity window too small to check one full period of (S_{n,p})"
        )
    return {"ok": not failures, "checked": checked, "failures": failures}


# -- random graded instances -------------------------------------------------


def random_graded_complex(field, N, rng, lo=0, hi=6, strings=6, cyclic=False,
                          min_len=1):
    """Direct sum of identity strings of length min_len..N, conjugated
    degreewise (all strings of length exactly N give an acyclic complex)."""
    from .ndiff import random_unimodular

    degs = list(range(N)) if cyclic else list(range(lo, hi + 1))
    dims = {n: 0 for n in degs}
    chains = []  # (start, length)
    for _ in range(strings):
        length = rng.randint(min_len, N)
        if cyclic:
            start = rng.randint(0, N - 1)
        else:
            start = rng.randint(lo, hi - length + 1)
        chains.append((start, length))
        for k in range(length):
            d = (start + k) % N if cyclic else start + k
            dims[d] += 1
    # positions
    maps_ent = {n: {} for n in degs}
    fill = {n: 0 for n in degs}
    for start, length in chains:
        idxs = []
        for k in range(length):
            d = (start + k) % N if cyclic else start + k
            idxs.append((d, fill[d]))
            fill[d] += 1
        for k in range(length - 1):
            d, i = idxs[k]
            d2, j = idxs[k + 1]
            maps_ent[d][(j, i)] = field.one
    maps = {}
    conj = {}
    for n in degs:
        if dims[n]:
            conj[n] = random_unimodular(dims[n], field, rng, nops=dims[n] + 4)
        else:
            conj[n] = (
                ExactMatrix.zeros(0, 0, field),
                ExactMatrix.zeros(0, 0, field),
            )
    for n in degs:
        tgt = (n + 1) % N if cyclic else n + 1
        if not cyclic and tgt not in dims:
            continue
        raw = ExactMatrix(dims.get(tgt, 0), dims[n], field, maps_ent[n])
        maps[n] = conj[tgt][0] @ raw @ conj[n][1]
    return GradedNComplex(N, field, dims, maps, cyclic=cyclic)


def random_graded_ses(field, N, rng, lo=0, hi=5, min_len=1):
    """SES from a random stable graded subcomplex (span of d-orbits)."""
    from .linalg import EchelonSolver

    while True:
        F = random_graded_complex(
            field, N, rng, lo, hi, strings=rng.randint(4, 7), min_len=min_len
        )
        # random orbit vectors
        cols = {n: [] for n in F.degrees()}
        any_col = False
        for _ in range(rng.randint(1, 3)):
            n = rng.choice(F.degrees())
            if F.dims[n] == 0:
                continue
            v = {
                i: field.from_rat(rng.randint(-2, 2)) for i in range(F.dims[n])
            }
            v = {i: c for i, c in v.items() if not field.is_zero(c)}
            for k in range(N):
                deg = n + k
                if deg not in F.dims:
                    break
                if v:
                    cols[deg].append(dict(v))
                    any_col = True
                M = F.map(deg)
                if M is None:
                    break
                v = M.apply(v)
        if not any_col:
            continue
        Ebasis = {}
        dimsE = {}
        ok_dims = False
        for n in F.degrees():
            mat = ExactMatrix.from_columns(cols[n], F.dims[n], field)
            Ebasis[n] = image_basis(mat).basis
            dimsE[n] = Ebasis[n].ncols
        total_E = sum(dimsE.values())
        if 0 < total_E < sum(F.dims.values()):
            ok_dims = True
        if not ok_dims:
            continue
        # restriction and quotient, degreewise
        mapsE, mapsG, phi, psi = {}, {}, {}, {}
        dimsG = {}
        sections = {}
        for n in F.degrees():
            S = Subspace(F.dims[n], Ebasis[n])
            q = QuotientSpace(Subspace.full(F.dims[n], field), S)
            idx = q.complement_positions
            dimsG[n] = len(idx)
            sections[n] = ExactMatrix.from_columns(
                [{i: field.one} for i in idx], F.dims[n], field
            )
            phi[n] = Ebasis[n]
            proj_cols = [q.coordinates({j: field.one}) for j in range(F.dims[n])]
            psi[n] = ExactMatrix.from_columns(proj_cols, dimsG[n], field)
        for n in F.degrees():
            if n + 1 not in F.dims:
                continue
            M = F.map(n)
            solver = EchelonSolver(Ebasis[n + 1])
            colsE = []
            for col in Ebasis[n].columns():
                c = solver.solve(M.apply(col))
                if c is None:
                    raise AssertionError("orbit space must be stable")
                colsE.append(c)
            mapsE[n] = ExactMatrix.from_columns(colsE, dimsE[n + 1], field)
            mapsG[n] = psi[n + 1] @ M @ sections[n]
        E = GradedNComplex(N, field, dimsE, mapsE)
        G = GradedNComplex(N, field, dimsG, mapsG)
        return GradedSES(E, F, G, phi, psi)
