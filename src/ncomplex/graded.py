"""Z-graded and Z_N-cyclic N-complexes: graded generalized homology inside
explicit validity windows, the matrix-algebra Z_N example, q-tensor products,
the N = 2 Kunneth check and long exact sequences of graded SES."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cache, reduce
from itertools import accumulate

from .fields import check_assumptions, q_binomial
from .linalg import (
    EchelonSolver,
    ExactMatrix,
    kernel_basis,
    kron,
    place_blocks,
    rank,
    span,
)
from .ndiff import (ConnectingChain, Homology, HomologySlot, NDiffModule,
                    WindowError, exact_at)


class GradedNComplex:
    """Degree-indexed components with degree-1 maps and d^N = 0.

    ``cyclic`` complexes store one period (degrees 0..N-1, maps wrap).
    For Z-graded complexes the ``truncated_below/above`` flags say whether
    the complex continues beyond the stored window (so values there are
    unknown) or is genuinely zero outside.

    An optional ``product`` maps a pair of degrees (a, b) (taken mod N on
    a cyclic complex) to the matrix P_ab: C^a ox C^b -> C^(a+b) in the
    ``kron`` layout, so column i dim(b) + j holds e_i e_j; the builders make
    each P_ab on first request and keep it.

    Construction runs ``validate``, the one d^N = 0 certificate.  The
    composites d^k and the default ``graded_homology`` are cached on the
    complex, so a complex must not be mutated after construction.
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
        product=None,
    ):
        self.N = N
        self.field = field
        self.cyclic = cyclic
        self.dims = dict(dims)
        self.maps = dict(maps)
        self.truncated_below = truncated_below
        self.truncated_above = truncated_above
        self.product = product
        self._composites = {}
        self._homology = None
        if cyclic:
            self.n_min, self.n_max = 0, N - 1
            if set(self.dims) != set(range(N)):
                raise ValueError(f"a cyclic complex needs dims in degrees 0..{N - 1}")
        else:
            self.n_min = min(self.dims) if self.dims else 0
            self.n_max = max(self.dims) if self.dims else 0
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

        Memoized by n mod N on a cyclic complex (``maps`` is fixed after
        construction): d^k is map(n+k-1) @ d^(k-1), with d^(k-1) formed only
        when map(n+k-1) is determined; d^1 is the map and d^0 the identity.
        ``validate`` certifies d^N = 0 on these; ``graded_homology`` reuses them."""
        if k < 0:
            raise ValueError(f"need k >= 0, got {k}")
        key = (n % self.N if self.cyclic else n, k)
        if key not in self._composites:
            if self.dim(n) is None:
                acc = None
            elif k == 0:
                acc = ExactMatrix.identity(self.dim(n), self.field)
            elif k == 1:
                acc = self.map(n)
            else:
                M = self.map(n + k - 1)
                prev = None if M is None else self.composite(n, k - 1)
                acc = None if prev is None else M @ prev
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
        offs = dict(zip(degs, accumulate((self.dims[n] for n in degs), initial=0)))
        total = sum(self.dims.values())
        pieces = []
        for n in degs:
            tgt = (n + 1) % self.N if self.cyclic else n + 1
            if tgt in offs:
                pieces.append((offs[tgt], offs[n], self.map(n)))
        d = place_blocks(total, total, self.field, pieces)
        return NDiffModule(self.N, d)

    def __repr__(self):
        kind = "cyclic" if self.cyclic else f"[{self.n_min},{self.n_max}]"
        return f"GradedNComplex(N={self.N}, {kind}, dims={self.dims})"


def graded_homology(C, ms=None):
    """Compute H^n_(m) wherever both d^m out of n and d^(N-m) into n are
    determined; degrees outside that window are simply absent.  The default
    call, over all m, is memoized on C.  C was validated at construction:
    d^N = 0 on every determined degree, so B lies in Z wherever both are.

    Z and B are read off the memoized composites d^m and d^(N-m), which
    validating C has already formed; the module's kernel and image chains
    would form them again.  Moved onto those chains, Theorem 3's construct
    ran 2.3x slower (median of 15 runs, 12.3-13.7 ms -> 29.9-30.0 ms)."""
    memo = ms is None
    if memo and C._homology is not None:
        return C._homology
    N = C.N
    ms = range(1, N) if memo else list(ms)
    if not all(1 <= m <= N - 1 for m in ms):
        raise ValueError(f"need 1 <= m <= N-1 = {N - 1}, got {ms}")
    slots = {}
    for n in C.degrees():
        if C.dim(n) is None:
            continue
        for m in ms:
            out = C.composite(n, m)
            if out is None:
                continue
            src = C.composite(n + m - N, N - m)
            if src is None:
                continue
            slots[(n, m)] = HomologySlot(kernel_basis(out), span(src))
    H = Homology(slots)
    if memo:
        C._homology = H
    return H


def check_graded_q_leibniz(C, q):
    """d(ab) = d(a) b + q^a a d(b) on all homogeneous basis pairs
    (``q_leibniz_failure``); needs ``C.product``."""
    if C.product is None:
        raise ValueError("complex carries no product")
    return q_leibniz_failure(C, q) is None


def q_leibniz_failure(C, q):
    """The first ``(a, b, column)`` at which the graded q-Leibniz rule
    d P_ab = P_(a+1,b) (d ox 1) + q^a P_(a,b+1) (1 ox d) fails, column
    i dim(b) + j standing for the pair (e_i, e_j); None when it holds on
    every pair of degrees whose products and differentials are stored."""
    f = C.field
    wrap = (lambda k: k % C.N) if C.cyclic else (lambda k: k)
    for a in C.degrees():
        for b in C.degrees():
            # all three products and their differentials must stay stored
            if not C.cyclic and max(a, b, a + b) + 1 > C.n_max:
                continue
            lhs = C.map(wrap(a + b)) @ C.product(a, b)
            rhs = C.product(wrap(a + 1), b) @ kron(
                C.map(a), ExactMatrix.identity(C.dims[b], f)
            ) + (C.product(a, wrap(b + 1)) @ kron(
                ExactMatrix.identity(C.dims[a], f), C.map(b))).scale(f.pow(q, a))
            col = _first_nonzero_column(lhs - rhs)
            if col is not None:
                return a, b, col
    return None


def _first_nonzero_column(M):
    """The smallest column index holding a nonzero entry of M, or None: the
    first basis tuple on which an identity lhs = rhs fails, for M = lhs - rhs."""
    return min((c for _, c in M.entries), default=None)


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
        product = cache(self._product)
        # e^1 reads no product, so it can come before the complex
        e, one = self._e_power(1), ExactMatrix.identity(N, field)
        # d(A) = eA - q^a Ae on degree a
        maps = {
            a: product(1, a) @ kron(e, one)
            - (product(a, 1) @ kron(one, e)).scale(field.pow(q, a))
            for a in range(N)
        }
        self.complex = GradedNComplex(
            N, field, {a: N for a in range(N)}, maps, cyclic=True, product=product
        )

    def _product(self, a, b):
        """P_ab (degrees mod N), an N x N^2 matrix: E^k_l E^r_s =
        delta_(k,s) E^r_l."""
        N, one = self.N, self.field.one
        tgt = self.index[(a + b) % N]
        ent = {}
        for ia, (k, l) in enumerate(self.basis[a]):
            for ib, (r, s) in enumerate(self.basis[b]):
                if k == s:
                    ent[(tgt[(r, l)], ia * N + ib)] = one
        return ExactMatrix(N, N * N, self.field, ent, _clean=False)

    def _e_power(self, k):
        """e^k (k >= 1) as an N x 1 matrix in degree k mod N, where
        e = lambda_1 E^2_1 + ... + lambda_N E^1_N has degree 1."""
        N, f = self.N, self.field
        e = ExactMatrix(N, 1, f, {
            (self.index[1][(l % N + 1, l)], 0): self.lambdas[l - 1]
            for l in range(1, N + 1)
        })
        v = e
        for deg in range(1, k):
            v = self.complex.product(deg % N, 1) @ kron(v, e)
        return v

    def e_power_is_scalar(self):
        """e^N = lambda_1 ... lambda_N * identity."""
        f = self.field
        coeff = reduce(f.mul, self.lambdas, f.one)
        # identity of M_N(k) in degree 0: sum over E^n_n
        expect = ExactMatrix(self.N, 1, f, {
            (self.index[0][(n, n)], 0): coeff for n in range(1, self.N + 1)
        })
        return self._e_power(self.N) == expect

    def lemma4_homotopy(self):
        """h = (1 - q)^-1 (prod lambda)^-1 e^(N-1) * (left multiplication),
        satisfying h d - q d h = Id on the total module."""
        f, N = self.field, self.N
        coeff = reduce(f.mul, self.lambdas, f.one)
        scale = f.inv(f.mul(f.sub(f.one, self.q), coeff))
        # left multiplication by e^(N-1) on degree a is P_(N-1,a) (e^(N-1) ox 1)
        left = kron(self._e_power(N - 1), ExactMatrix.identity(N, f))
        total = self.complex.total_module()
        pieces = [
            ((a + N - 1) % N * N, a * N,
             (self.complex.product(N - 1, a) @ left).scale(scale))
            for a in range(N)
        ]
        h = place_blocks(total.dim, total.dim, f, pieces)
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


def q_tensor(C1, C2, q):
    """Tensor product with d(x ox y) = d'x ox y + q^deg(x) x ox d''y.

    Both factors must be fully known (no truncation) over the same field and
    with (field, q, N) satisfying (A1).  Every product checks the q-binomial
    power formula (``_validate_q_power_formula``)."""
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
        if ((n + 1) % N if C1.cyclic else n + 1) in idx.dims:
            maps[n] = tensor_differential(idx, q, n)
            if maps[n] is None:
                raise WindowError(f"q_tensor needs the factors' maps at degree {n}")
    T = GradedNComplex(N, f, dict(idx.dims), maps, cyclic=C1.cyclic)
    _validate_q_power_formula(C1, C2, q, T, idx)
    return T


def tensor_differential(idx, q, n):
    """d(x ox y) = d'x ox y + q^deg(x) x ox d''y out of degree n of the
    tensor product laid out by ``idx``, block by block as d' ox I and
    q^r I ox d''; None when a factor's map out of a block is undetermined."""
    C1, C2 = idx.C1, idx.C2
    f = C1.field
    wrap = (lambda k: k % C1.N) if idx.cyclic else (lambda k: k)
    out = idx.layout.get(wrap(n + 1), {})
    pieces = []
    for (r, s), off in idx.layout[n].items():
        d1, d2 = C1.map(r), C2.map(s)
        if d1 is None or d2 is None:
            return None
        if (wrap(r + 1), s) in out:
            one2 = ExactMatrix.identity(C2.dims[s], f)
            pieces.append((out[(wrap(r + 1), s)], off, kron(d1, one2)))
        if (r, wrap(s + 1)) in out:
            qr = ExactMatrix.identity(C1.dims[r], f).scale(f.pow(q, wrap(r)))
            pieces.append((out[(r, wrap(s + 1))], off, kron(qr, d2)))
    return place_blocks(idx.dims.get(wrap(n + 1), 0), idx.dims[n], f, pieces)


def _validate_q_power_formula(C1, C2, q, T, idx):
    """d^n(x ox y) = sum_m q^(deg(x)(n-m)) [n m]_q d'^m x ox d''^(n-m) y for
    n <= N: per block (r, s) and power n, the columns of d^n at the block
    against the sum of the blocks [n m]_q q^(r(n-m)) d'^m ox d''^(n-m)."""
    N, f = T.N, T.field
    wrap = (lambda k: k % N) if T.cyclic else (lambda k: k)
    for n_deg in sorted(idx.layout):
        for (r, s), off in idx.layout[n_deg].items():
            width = C1.dims[r] * C2.dims[s]
            for n in range(1, N + 1):
                lhs_mat = T.composite(n_deg, n)
                if lhs_mat is None:
                    continue
                out = idx.layout.get(wrap(n_deg + n), {})
                pieces = []
                for m in range(n + 1):
                    cm1 = C1.composite(r, m)
                    cm2 = C2.composite(s, n - m)
                    block = (wrap(r + m), wrap(s + n - m))
                    if cm1 is None or cm2 is None or block not in out:
                        continue
                    coeff = f.mul(
                        f.pow(q, wrap(r) * (n - m)), q_binomial(n, m, q, f)
                    )
                    pieces.append((out[block], 0, kron(cm1, cm2).scale(coeff)))
                rhs = place_blocks(lhs_mat.nrows, width, f, pieces)
                if lhs_mat.take_columns(range(off, off + width)) != rhs:
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
    T = q_tensor(C1, C2, minus_one)
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
    """0 -> E -> F -> G -> 0 of graded N-complexes, maps given per degree.
    A successful ``validate`` and the solvers of phi and psi are remembered,
    so neither the sequence nor its complexes may be mutated after
    construction."""

    E: GradedNComplex
    F: GradedNComplex
    G: GradedNComplex
    phi: dict  # degree -> ExactMatrix
    psi: dict
    _valid: bool = dataclass_field(
        default=False, init=False, repr=False, compare=False)
    _solvers: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False)

    def validate(self):
        if self._valid:
            return True
        # every degree of E, F or G: one that F lacks must be empty in E and G
        for n in sorted(self.E.dims.keys() | self.F.dims.keys() | self.G.dims.keys()):
            phi, psi = self.phi.get(n), self.psi.get(n)
            dE = self.E.dims.get(n, 0)
            dF = self.F.dims.get(n, 0)
            dG = self.G.dims.get(n, 0)
            if phi is None or psi is None:
                if dE or dG:
                    raise ValueError(f"missing maps at degree {n}")
                if dF:
                    raise ValueError(f"not exact at degree {n}")
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
        self._valid = True
        return True

    def solver(self, name, n):
        """The ``EchelonSolver`` of ``phi`` or ``psi`` at degree n, built once."""
        if (name, n) not in self._solvers:
            self._solvers[name, n] = EchelonSolver(getattr(self, name)[n])
        return self._solvers[name, n]


def graded_connecting(ses, HGs, HEs, j, m):
    """partial: H^j_(m)(G) -> H^(j+m)_(N-m)(E) by the lifting recipe
    (``ndiff.ConnectingChain``) on the maps of degrees j and j + m."""
    N = ses.F.N
    tgt = (j + m) % N if ses.F.cyclic else j + m
    chain = ConnectingChain(ses.solver("psi", j), ses.F.composite(j, m),
                            ses.solver("phi", tgt), ses.E.composite(tgt, N - m))
    return HGs[(j, m)].map_to(HEs[(tgt, N - m)], chain)


def les_check(ses, n, p):
    """Exactness of the long sequence (S_{n,p}) at every node whose three
    neighbouring homologies lie inside the validity windows."""
    ses.validate()
    N, cyclic = ses.F.N, ses.F.cyclic
    H = {tag: graded_homology(C) for tag, C in zip("EFG", (ses.E, ses.F, ses.G))}
    wrap = (lambda j: j % N) if cyclic else (lambda j: j)
    # the node list: (degree, m, space-tag) repeating with period N
    if cyclic:
        r_range = range(0, 1)
    else:
        lo, hi = min(ses.F.degrees()), max(ses.F.degrees())
        r_range = range((lo - p - N) // N, (hi - p) // N + 2)
    nodes = [(N * r + p + shift, m, tag) for r in r_range
             for shift, m in ((0, n), (n, N - n)) for tag in "EFG"]

    def slot(j, m, tag):
        return H[tag].slots.get((wrap(j), m))

    @cache
    def arrow(idx):
        """Map leaving node idx, or None if not computable: a slot lies
        outside its window, or a representative must pass through a map
        that is absent (a degree where E and G vanish may carry no maps)."""
        j, m, tag = nodes[idx]
        if tag != "G":
            maps, after = (ses.phi, "F") if tag == "E" else (ses.psi, "G")
            source, target, M = slot(j, m, tag), slot(j, m, after), maps.get(wrap(j))
            if source is None or target is None or (M is None and source.dim_H):
                return None
            return source.map_to(target, None if M is None else M.apply)
        if (slot(j, m, "G") is None or slot(j + m, N - m, "E") is None
                or wrap(j) not in ses.psi or wrap(j + m) not in ses.phi):
            return None
        return graded_connecting(ses, H["G"].slots, H["E"].slots, wrap(j), m)

    checked, failures = 0, []
    for i in range(len(nodes)):
        # the Z-graded node list is a path: its two end nodes lack a neighbour
        if not cyclic and not 0 < i < len(nodes) - 1:
            continue
        s = slot(*nodes[i])
        if s is None:
            continue
        incoming, outgoing = arrow((i - 1) % len(nodes)), arrow(i)
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
