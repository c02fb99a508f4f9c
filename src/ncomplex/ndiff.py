"""N-differential modules: generalized homology H_(m) = ker d^m / im d^(N-m),
Jordan multiplicities, exact hexagons, homotopy criteria, Green-ansatz tensor
products and short exact sequences with connecting homomorphisms."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property

from .fields import Field, check_keys
from .linalg import (
    EchelonSolver,
    ExactMatrix,
    QuotientSpace,
    _split_vector,
    image_basis,
    kernel_basis,
    kron,
    orbit_span,
    quotient_maps,
    rank,
    restrict,
)


class NDiffModule:
    """Finite-dimensional vector space with an endomorphism d, d^N = 0.

    With ``check=True`` the nilpotency certificate is the image chain: its
    last link spans im d^N, so it is zero exactly when d^N = 0.  The chain is
    cached for ``rank_profile`` and ``homology``, and d^N itself is never
    formed; d^m is formed lazily, only for the kernels of ``homology``.

    The powers d^k, the image chain and the homology (with its cached
    induced maps) are cached on the module, so a module must not be mutated
    after construction: build a new one instead."""

    def __init__(self, N, d, check=True):
        if N < 2:
            raise ValueError("N must be >= 2")
        if d.nrows != d.ncols:
            raise ValueError("d must be square")
        self.N = N
        self.d = d
        self.dim = d.nrows
        self.field = d.field
        self._powers = {0: ExactMatrix.identity(self.dim, self.field), 1: d}
        self._image_chain = None
        self._homology = None
        if check and self.image_chain()[-1].dim != 0:
            raise ValueError(f"d^{N} != 0: not an {N}-differential")

    def power(self, k):
        """d^k, cached."""
        if k not in self._powers:
            self._powers[k] = self.power(k - 1) @ self.d
        return self._powers[k]

    def image_chain(self):
        """Image bases of d^1, ..., d^N computed by shrinking eliminations.

        Link k spans d(link k-1) = im d^k, so its dimension is rank d^k and
        the last link is zero exactly when d^N = 0: the chain is the
        nilpotency certificate of ``__init__``.  Each link keeps the echelon
        of ``image_basis``, which Theorem 5 extends."""
        if self._image_chain is None:
            chain = [image_basis(self.d)]
            for _ in range(self.N - 1):
                chain.append(image_basis(self.d @ chain[-1].basis))
            self._image_chain = chain
        return self._image_chain

    def rank_profile(self):
        """[rank d^0, ..., rank d^N] (first = dim, last = 0)."""
        return [self.dim] + [S.dim for S in self.image_chain()]

    def to_json(self):
        return {"N": self.N, "field": self.field.to_json(), "d": self.d.to_json()}

    @staticmethod
    def from_json(obj):
        check_keys(obj, "a module", ("N", "field", "d"))
        if not isinstance(obj["N"], int) or isinstance(obj["N"], bool):
            raise ValueError(f"module N must be an int, got {obj['N']!r}")
        f = Field.from_json(obj["field"])
        return NDiffModule(obj["N"], ExactMatrix.from_json(obj["d"], field=f))

    def __repr__(self):
        return f"NDiffModule(N={self.N}, dim={self.dim})"


class HomologySlot:
    """Homology space H = Z / B, dim H = dim Z - dim B, with the quotient that
    fixes its representatives.  That is built and checked here, or on first
    read if the caller ``certified`` B in Z (d^N = 0) with Z, B independent."""

    def __init__(self, Z, B, *, certified=False):
        self.Z, self.B = Z, B
        self.dim_Z, self.dim_B, self.dim_H = Z.dim, B.dim, Z.dim - B.dim
        if not certified:
            self.quotient  # built and checked now

    @cached_property
    def quotient(self):
        q = QuotientSpace(self.Z, self.B)
        if not q.dim == self.dim_H >= 0:
            raise AssertionError("dim H != dim Z - dim B")
        return q

    @property
    def representatives(self):
        return self.quotient.representatives()

    def map_to(self, target, image):
        """Matrix of the map from this space to ``target`` that sends the
        class of z to the class of image(z), in the representative bases."""
        coordinates = target.quotient.coordinates
        cols = [coordinates(image(z)) for z in self.representatives.columns()]
        return ExactMatrix.from_columns(cols, target.dim_H, target.quotient.field)


@dataclass
class GeneralizedHomology:
    """Per m in {1..N-1}: Z, B and H data with fixed representative bases.

    ``arrows`` caches the Lemma-1 maps in the representative bases, each
    built on first use: [i]^k: H_(m) -> H_(m+k) under ("i", m, k) and
    [d]^k: H_(m+k) -> H_(m) under ("d", m, k).  They stay valid only as
    long as the module is not mutated."""

    module: NDiffModule
    slots: dict
    arrows: dict = dataclass_field(default_factory=dict, repr=False)

    def __getitem__(self, m):
        return self.slots[m]

    def dims(self):
        return {m: s.dim_H for m, s in self.slots.items()}


def homology(E):
    """Generalized homology, representatives by the complement rule.  A zero
    last image-chain link (d^N = 0) lets the slots build quotients lazily."""
    if E._homology is not None:
        return E._homology
    images = E.image_chain()
    slots = {
        m: HomologySlot(kernel_basis(E.power(m)), images[E.N - m - 1],
                        certified=images[-1].dim == 0)
        for m in range(1, E.N)
    }
    E._homology = GeneralizedHomology(E, slots)
    return E._homology


@dataclass
class Multiplicities:
    """Jordan multiplicities m_n of the nilpotent d."""

    counts: dict  # n -> m_n

    def total_dim(self):
        return sum(n * c for n, c in self.counts.items())


def multiplicities(E):
    """m_n = rank d^(n-1) - 2 rank d^n + rank d^(n+1)."""
    r = E.rank_profile() + [0]
    counts = {}
    for n in range(1, E.N + 1):
        m_n = r[n - 1] - 2 * r[n] + r[n + 1]
        if m_n < 0:
            raise AssertionError("inconsistent rank profile")
        counts[n] = m_n
    return Multiplicities(counts)


def proposition4_check(E):
    """dim H_(k) = dim H_(N-k) = sum_{j<=k} sum_{j<=i<=N-j} m_i for k <= N/2,
    comparing the multiplicity formula against direct rank computations."""
    N = E.N
    mult = multiplicities(E)
    if mult.total_dim() != E.dim:
        raise AssertionError("Jordan multiplicities do not add up to dim E")
    r = E.rank_profile()
    dims_direct = {m: (E.dim - r[m]) - r[N - m] for m in range(1, N)}
    report = {"ok": True, "N": N, "dim": E.dim, "multiplicities": mult.counts,
              "dims": dims_direct, "formula": {}}
    for k in range(1, N // 2 + 1):
        formula = sum(
            mult.counts[i] for j in range(1, k + 1) for i in range(j, N - j + 1)
        )
        report["formula"][k] = formula
        if not (dims_direct[k] == dims_direct[N - k] == formula):
            report["ok"] = False
    # dimension symmetry for every m
    for m in range(1, N):
        if dims_direct[m] != dims_direct[N - m]:
            report["ok"] = False
    return report


def _arrow(E, key, build):
    """The arrow cached under ``key`` on the homology H of E, made by
    ``build(H)`` on first use."""
    H = homology(E)
    if key not in H.arrows:
        H.arrows[key] = build(H)
    return H.arrows[key]


def induced_i(E, m):
    """[i]: H_(m) -> H_(m+1), class of z maps to class of z; cached."""
    if not 1 <= m <= E.N - 2:
        raise ValueError("need 1 <= m <= N-2")
    return _arrow(E, ("i", m, 1), lambda H: H[m].map_to(H[m + 1], lambda z: z))


def induced_d(E, m):
    """[d]: H_(m+1) -> H_(m), class of z maps to class of d z; cached."""
    if not 1 <= m <= E.N - 2:
        raise ValueError("need 1 <= m <= N-2")
    return _arrow(E, ("d", m, 1), lambda H: H[m + 1].map_to(H[m], E.d.apply))


def induced_i_power(E, m, k):
    """[i]^k: H_(m) -> H_(m+k), composed from the cached steps; cached."""
    if k == 0:
        return ExactMatrix.identity(homology(E)[m].dim_H, E.field)
    if k == 1:
        return induced_i(E, m)
    return _arrow(E, ("i", m, k), lambda H: (
        induced_i(E, m + k - 1) @ induced_i_power(E, m, k - 1)))


def induced_d_power(E, m, k):
    """[d]^k: H_(m+k) -> H_(m), composed from the cached steps; cached."""
    if k == 0:
        return ExactMatrix.identity(homology(E)[m].dim_H, E.field)
    if k == 1:
        return induced_d(E, m)
    return _arrow(E, ("d", m, k), lambda H: (
        induced_d(E, m) @ induced_d_power(E, m + 1, k - 1)))


def exact_at(incoming, outgoing, vertex_dim):
    """im(incoming) = ker(outgoing): composite vanishes and ranks add up."""
    if not (outgoing @ incoming).is_zero():
        return False
    return rank(incoming) == vertex_dim - rank(outgoing)


def _inexact_vertices(maps, dims):
    """Indices v at which a cycle of maps is not exact: maps[v] enters the
    vertex of dimension dims[v] and maps[v + 1] (cyclically) leaves it.
    Each map's rank is computed at most once."""
    rank_of = cache(lambda v: rank(maps[v]))
    failed = []
    for v, dim in enumerate(dims):
        w = (v + 1) % len(maps)
        if (not (maps[w] @ maps[v]).is_zero()
                or rank_of(v) != dim - rank_of(w)):
            failed.append(v)
    return failed


def hexagon_check(E, ell, m):
    """Exactness of the hexagon of [i]/[d] powers at all six vertices."""
    N = E.N
    if not (ell >= 1 and m >= 1 and ell + m <= N - 1):
        raise ValueError("need ell, m >= 1 and ell + m <= N - 1")
    H = homology(E)
    k = N - (ell + m)
    # vertices in cyclic order with the maps entering them
    vertices = [m, ell + m, ell, N - m, N - (ell + m), N - ell]
    maps = [
        induced_d_power(E, m, k),            # H_(N-l) -> H_(m)
        induced_i_power(E, m, ell),          # H_(m) -> H_(l+m)
        induced_d_power(E, ell, m),          # H_(l+m) -> H_(l)
        induced_i_power(E, ell, k),          # H_(l) -> H_(N-m)
        induced_d_power(E, N - (ell + m), ell),  # H_(N-m) -> H_(N-(l+m))
        induced_i_power(E, N - (ell + m), m),    # -> H_(N-l)
    ]
    failures = [vertices[v] for v in
                _inexact_vertices(maps, [H[u].dim_H for u in vertices])]
    return {"ok": not failures, "ell": ell, "m": m, "failed_vertices": failures}


def all_hexagons_check(E):
    reports = []
    for ell in range(1, E.N - 1):
        for m in range(1, E.N - ell):
            reports.append(hexagon_check(E, ell, m))
    return {"ok": all(r["ok"] for r in reports), "hexagons": reports}


def homotopy_criterion_lemma3(E, hs):
    """True iff sum_k d^(N-1-k) h_k d^k = Id; if so, all H_(n) vanish (checked)."""
    if len(hs) != E.N:
        raise ValueError("need N homotopy components h_0..h_(N-1)")
    f = E.field
    acc = ExactMatrix.zeros(E.dim, E.dim, f)
    for k, h in enumerate(hs):
        acc = acc + E.power(E.N - 1 - k) @ h @ E.power(k)
    holds = acc == ExactMatrix.identity(E.dim, f)
    if holds and any(homology(E).dims().values()):
        raise AssertionError("Lemma 3 homotopy holds but the homology is nonzero")
    return holds


def homotopy_criterion_lemma4(E, h, q):
    """True iff h d - q d h = Id under assumption (A1); if so, homology vanishes."""
    from .fields import check_assumptions

    if check_assumptions(q, E.N, E.field) != "A1":
        raise ValueError("(field, q, N) must satisfy (A1)")
    lhs = (h @ E.d) - (E.d @ h).scale(q)
    holds = lhs == ExactMatrix.identity(E.dim, E.field)
    if holds and any(homology(E).dims().values()):
        raise AssertionError("Lemma 4 homotopy holds but the homology is nonzero")
    return holds


def green_tensor(E1, E2):
    """(N'+N''-1)-differential d'ox I + I ox d'' on the tensor product."""
    if E1.field != E2.field:
        raise ValueError("field mismatch")
    f = E1.field
    d = (kron(E1.d, ExactMatrix.identity(E2.dim, f))
         + kron(ExactMatrix.identity(E1.dim, f), E2.d))
    return NDiffModule(E1.N + E2.N - 1, d)


# -- quotients and short exact sequences ------------------------------------


def stable_quotient(E, S):
    """Quotient of E by a d-stable subspace S: returns (G, proj, section)."""
    proj, section = quotient_maps(S)
    dG = proj @ E.d @ section
    G = NDiffModule(E.N, dG)
    return G, proj, section


def submodule(E, S):
    """Restriction of d to a stable subspace S in its own coordinates."""
    dE = restrict(E.d, S, S)
    if dE is None:
        raise ValueError("subspace is not d-stable")
    return NDiffModule(E.N, dE)


@dataclass
class ShortExactSequence:
    """0 -> E -phi-> F -psi-> G -> 0 of N-differential modules.

    The solvers of phi and psi, the kernel of psi and the maps of each
    Proposition-3 hexagon are cached on the sequence, and the homologies on
    E, F and G, so neither the sequence nor its modules may be mutated
    after construction.  A successful ``validate`` is remembered too."""

    E: NDiffModule
    F: NDiffModule
    G: NDiffModule
    phi: ExactMatrix
    psi: ExactMatrix
    _homology_maps: dict = dataclass_field(
        default_factory=dict, init=False, repr=False, compare=False)
    _valid: bool = dataclass_field(
        default=False, init=False, repr=False, compare=False)

    def validate(self):
        if self._valid:
            return True
        if not (self.E.N == self.F.N == self.G.N):
            raise ValueError("mixed N")
        if rank(self.phi) != self.E.dim:
            raise ValueError("phi is not injective")
        if rank(self.psi) != self.G.dim:
            raise ValueError("psi is not surjective")
        if not (self.psi @ self.phi).is_zero():
            raise ValueError("psi o phi != 0")
        if self.E.dim + self.G.dim != self.F.dim:
            raise ValueError("im phi != ker psi (dimension count)")
        if (self.phi @ self.E.d) != (self.F.d @ self.phi):
            raise ValueError("phi is not a chain map")
        if (self.psi @ self.F.d) != (self.G.d @ self.psi):
            raise ValueError("psi is not a chain map")
        self._valid = True
        return True

    def to_json(self):
        """The ``ncx ses`` input form."""
        return {"E": self.E.to_json(), "F": self.F.to_json(),
                "G": self.G.to_json(), "phi": self.phi.to_json(),
                "psi": self.psi.to_json()}

    @staticmethod
    def from_json(obj):
        check_keys(obj, "a short exact sequence", ("E", "F", "G", "phi", "psi"))
        E = NDiffModule.from_json(obj["E"])
        return ShortExactSequence(
            E, NDiffModule.from_json(obj["F"]), NDiffModule.from_json(obj["G"]),
            ExactMatrix.from_json(obj["phi"], field=E.field),
            ExactMatrix.from_json(obj["psi"], field=E.field))

    @cached_property
    def psi_solver(self):
        return EchelonSolver(self.psi)

    @cached_property
    def phi_solver(self):
        return EchelonSolver(self.phi)

    @cached_property
    def ker_psi(self):
        return kernel_basis(self.psi)

    def homology_maps(self, k):
        """``(phi_k, psi_k, partial_k)``: H_(k)(E) -> H_(k)(F) -> H_(k)(G)
        -> H_(N-k)(E) in the representative bases, built once per k."""
        if k not in self._homology_maps:
            HE, HF, HG = homology(self.E), homology(self.F), homology(self.G)
            self._homology_maps[k] = (
                HE[k].map_to(HF[k], self.phi.apply),
                HF[k].map_to(HG[k], self.psi.apply),
                HG[k].map_to(HE[self.E.N - k],
                             lambda z: self.connect_vector(z, k)),
            )
        return self._homology_maps[k]

    def lift(self, z):
        """A psi-preimage of z as ``(numerators, D)`` (``Field.split``)."""
        sol = self.psi_solver.solve_split(*_split_vector(z, self.F.field))
        if sol is None:
            raise AssertionError("psi must be surjective")
        return sol

    def connect_vector(self, z, m):
        """partial applied to one cycle z in Z_(m)(G): lift, apply d^m, pull
        back through phi; returns the representative x in E-coordinates."""
        return self.connect_lift(*self.lift(z), m)

    def connect_lift(self, y, Dy, m):
        """partial from a lift y / Dy (numerators over Dy) of a cycle in
        Z_(m)(G): apply d^m, pull back through phi; returns the
        representative x in E-coordinates.

        The chain runs on integer numerators and builds scalars only for x."""
        f = self.F.field
        sol = self.phi_solver.solve_split(*self.F.power(m).apply_split(y, Dy))
        if sol is None:
            raise AssertionError("d^m of the lift left the image of phi")
        x, Dx = sol
        cycle, _ = self.E.power(self.E.N - m).apply_split(x, Dx)
        if not all(map(f.is_zero, cycle.values())):
            raise AssertionError("connecting image is not a (N-m)-cycle")
        return {j: f.join(n, Dx) for j, n in x.items()}


def connecting_well_defined(ses, m, rng=None, trials=None):
    """Proposition 3: the class of partial(z) in H_(N-m)(E) does not depend
    on the psi-lift of the cycle z in Z_(m)(G), certified on a basis.

    Two lifts of z differ by some k in ker psi.  phi is injective, so the
    phi solve in ``connect_lift`` has a unique solution and is linear; so
    are d^m and the quotient coordinates.  Shifting a lift by
    sum c_i k_i therefore moves the class by sum c_i [connect(k_i)], where
    connect(k_i) = phi^-1(d^m k_i).  The class is well defined for every
    cycle and every lift exactly when each basis column k_i of ker psi
    connects to the zero class modulo B_(N-m)(E): one phi solve and one
    quotient-coordinates call per column, and no lift of a representative.

    ``rng`` and ``trials`` belong to the earlier random re-lift check; they
    are accepted for the callers still written against it and never read."""
    HE = homology(ses.E)[ses.E.N - m]
    cols, D = ses.ker_psi.basis.split_columns()
    return all(not HE.quotient.coordinates(
        ses.connect_lift(dict(zip(k[::2], k[1::2])), D, m)) for k in cols.values())


def ses_hexagon_check(ses):
    """Exactness of the hexagon (H_n) for each n in {1..N-1}."""
    ses.validate()
    N = ses.E.N
    HE, HF, HG = homology(ses.E), homology(ses.F), homology(ses.G)
    failures = []
    for n in range(1, N):
        maps = [*ses.homology_maps(n), *ses.homology_maps(N - n)]
        dims = [
            HF[n].dim_H,
            HG[n].dim_H,
            HE[N - n].dim_H,
            HF[N - n].dim_H,
            HG[N - n].dim_H,
            HE[n].dim_H,
        ]
        failures += [(n, v) for v in _inexact_vertices(maps, dims)]
    return {"ok": not failures, "failures": failures}


# -- random instances -------------------------------------------------------


def block_module(field, N, block_sizes):
    """Direct sum of Jordan blocks D_n (n <= N)."""
    total = sum(block_sizes)
    ent = {}
    off = 0
    for n in block_sizes:
        for i in range(n - 1):
            ent[(off + i, off + i + 1)] = field.one
        off += n
    return NDiffModule(N, ExactMatrix(total, total, field, ent, _clean=False))


def random_unimodular(n, field, rng, nops=None):
    """Product of elementary shears and swaps; returns (P, P_inverse)."""
    if nops is None:
        nops = n + 8
    ops = []
    for _ in range(nops):
        if rng.random() < 0.25:
            i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            ops.append(("swap", i, j, 0))
        else:
            i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            ops.append(("shear", i, j, rng.choice((-1, 1))))

    def apply_ops(sequence):
        rows = [{k: field.one} for k in range(n)]
        for kind, i, j, c in sequence:
            if i == j:
                continue
            if kind == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            else:
                cc = field.from_rat(c)
                for col, v in rows[j].items():
                    field.accumulate(rows[i], col, field.mul(cc, v))
        ent = {}
        for r, row in enumerate(rows):
            for c, v in row.items():
                ent[(r, c)] = v
        return ExactMatrix(n, n, field, ent, _clean=False)

    P = apply_ops(ops)
    inv_ops = [
        (kind, i, j, -c if kind == "shear" else 0)
        for kind, i, j, c in reversed(ops)
    ]
    Pinv = apply_ops(inv_ops)
    return P, Pinv


def random_ndiff(field, N, dim, rng):
    """Conjugated direct sum of D_n blocks; returns (module, multiplicities).

    d^N = 0 holds by construction and the block sizes are the ground truth
    Jordan data."""
    sizes = []
    left = dim
    while left > 0:
        n = rng.randint(1, min(N, left))
        sizes.append(n)
        left -= n
    rng.shuffle(sizes)
    base = block_module(field, N, sizes)
    P, Pinv = random_unimodular(dim, field, rng)
    d = P @ base.d @ Pinv
    mod = NDiffModule(N, d, check=False)  # nilpotency by construction
    truth = {n: sizes.count(n) for n in range(1, N + 1)}
    return mod, truth


def random_stable_subspace(E, rng, nseeds=2):
    """Span of d-orbits of random vectors: d-stable by construction."""
    f = E.field
    seeds = []
    for _ in range(nseeds):
        v = {i: f.from_rat(rng.randint(-2, 2)) for i in range(E.dim)}
        seeds.append({i: c for i, c in v.items() if not f.is_zero(c)})
    return orbit_span(E.d, seeds, E.N)


def random_ses(field, N, rng):
    """Random SES 0 -> E -> F -> G -> 0 with E a stable subspace of F, and
    6 <= dim F <= 14."""
    while True:
        dim = rng.randint(6, 14)
        F, _ = random_ndiff(field, N, dim, rng)
        S = random_stable_subspace(F, rng)
        if S.dim == 0 or S.dim == F.dim:
            continue
        E = submodule(F, S)
        G, proj, _ = stable_quotient(F, S)
        ses = ShortExactSequence(E, F, G, S.basis, proj)
        ses.validate()
        return ses
