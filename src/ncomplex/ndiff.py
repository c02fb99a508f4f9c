"""N-differential modules: generalized homology H_(m) = ker d^m / im d^(N-m),
Jordan multiplicities, exact hexagons, homotopy criteria, Green-ansatz tensor
products and short exact sequences with connecting homomorphisms."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .fields import Field, check_keys, rat
from .linalg import (
    EchelonSolver,
    ExactMatrix,
    QuotientSpace,
    _flat_columns,
    _split_vector,
    kernel_basis,
    kron,
    orbit_span,
    place_blocks,
    power_images,
    power_kernels,
    quotient_maps,
    rank,
    restrict,
)


class NDiffModule:
    """Finite-dimensional vector space with an endomorphism d, d^N = 0.

    With ``check=True`` the nilpotency certificate is the image chain: its
    last link spans im d^N, so it is zero exactly when d^N = 0.  The chain is
    cached for ``rank_profile`` and ``homology``, and d^N itself is never
    formed.  The kernels of ``homology`` come from the kernel chain, on
    echelon rows, so homology forms no power either; d^m is formed lazily,
    only for ``ShortExactSequence.connecting`` and Lemma 3.  Both chains
    run on one elimination loop (``linalg._power_echelons``).

    The powers d^k, the image chain and the homology (with its cached
    induced maps) are cached on the module, so a module must not be
    mutated after construction: build a new one instead."""

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
        if check and self.image_chain()[-1].leads:
            raise ValueError(f"d^{N} != 0: not an {N}-differential")

    def power(self, k):
        """d^k, cached."""
        if k not in self._powers:
            self._powers[k] = self.power(k - 1) @ self.d
        return self._powers[k]

    def image_chain(self):
        """Spans of im d^1, ..., im d^N by shrinking eliminations: the kernel
        chain's loop run on d^T without back-substitution (``power_images``),
        as col(d^(k+1)) = row((d^T)^(k+1)).  Link k is the ``Echelon`` of the
        rows that loop keeps, one per lead, so ``len(link.leads)`` is rank
        d^(k+1) and the last link is empty exactly when d^N = 0: the chain is
        the nilpotency certificate of ``__init__``.  A link is the B of a
        homology quotient as it stands (``QuotientSpace`` reads its rows),
        and Theorem 5 extends a fresh ``Echelon`` on its leads."""
        if self._image_chain is None:
            self._image_chain = power_images(self.d, self.N)
        return self._image_chain

    def kernel_chain(self):
        """Bases of ker d^1, ..., ker d^(N-1), the row-side mirror of the
        image chain: link 1 is read off the RREF of d's rows and link m+1
        off the RREF of link m's echelon rows times d (``power_kernels``),
        since rowspace(d^(m+1)) = rowspace(d^m) d.  Each link is the
        Subspace that ``kernel_basis`` builds from d^m, with the same unit
        rows, and no link needs d^N = 0.  It is not cached: ``homology``,
        which is, reads it once per module."""
        return power_kernels(self.d, self.N - 1)

    def rank_profile(self):
        """[rank d^0, ..., rank d^N] (first = dim, last = 0)."""
        return [self.dim] + [len(B.leads) for B in self.image_chain()]

    def homology_dims(self):
        """{m: dim H_(m)} for m in 1..N-1 read off the rank profile:
        dim ker d^m - rank d^(N-m) = (dim - rank d^m) - rank d^(N-m)."""
        r = self.rank_profile()
        return {m: (self.dim - r[m]) - r[self.N - m] for m in range(1, self.N)}

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
    fixes its representatives: Z a ``Subspace`` and B the ``Echelon`` that
    spans it (an image-chain link or ``linalg.span``).  The quotient is
    built and checked here, or on first read if the caller ``certified`` B
    in Z (d^N = 0)."""

    def __init__(self, Z, B, *, certified=False):
        self.Z, self.B = Z, B
        self.dim_Z, self.dim_B = Z.dim, len(B.leads)
        self.dim_H = self.dim_Z - self.dim_B
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


class WindowError(ValueError):
    """A graded computation would need degrees outside the stored window."""


@dataclass
class Homology:
    """The homology slots of a module or a graded complex, with fixed
    representative bases: H_(m) under m in {1..N-1} (``homology``), or
    H^n_(m) under (n, m) wherever the window determines it
    (``graded.graded_homology``).  An absent slot raises WindowError.  It
    keeps no reference to its module or complex, which memoizes it.

    ``arrows`` caches a module's Lemma-1 maps in the representative bases,
    each built on first use: [i]^k: H_(m) -> H_(m+k) under ("i", m, k) and
    [d]^k: H_(m+k) -> H_(m) under ("d", m, k).  They stay valid only as
    long as the module is not mutated."""

    slots: dict
    arrows: dict = dataclass_field(default_factory=dict, repr=False)

    def valid(self, *key):
        """Whether the slot under m, or under n, m, is determined."""
        return (key if len(key) > 1 else key[0]) in self.slots

    def __getitem__(self, key):
        if key not in self.slots:
            name = "H^{}_({})".format(*key) if isinstance(key, tuple) else f"H_({key})"
            raise WindowError(f"{name} is indeterminate under the stored window")
        return self.slots[key]

    def dims(self):
        return {key: s.dim_H for key, s in self.slots.items()}


def homology(E):
    """Generalized homology, representatives by the complement rule: Z_(m)
    is link m of the kernel chain and B_(m) link N-m of the image chain, so
    no power of d is formed.  A zero last image-chain link (d^N = 0) lets
    the slots build quotients lazily."""
    if E._homology is None:
        images, kernels = E.image_chain(), E.kernel_chain()
        certified = not images[-1].leads
        E._homology = Homology({
            m: HomologySlot(kernels[m - 1], images[E.N - m - 1],
                            certified=certified)
            for m in range(1, E.N)
        })
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
    dims_direct = E.homology_dims()
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


def _inexact_vertices(keys, maps, dims, seen):
    """Indices v at which a cycle of maps is not exact: maps[v], the arrow
    under keys[v], enters the vertex of dimension dims[v] and maps[v + 1]
    (cyclically) leaves it.  ``seen`` lives for one check: it
    holds each vertex decided, under its (incoming, outgoing) arrow keys,
    and each arrow's rank, under its key.  A vertex that recurs in a turned
    cycle is decided once, and each arrow is ranked at most once."""

    def rank_of(key, M):
        if key not in seen:
            seen[key] = rank(M)
        return seen[key]

    failed = []
    for v, dim in enumerate(dims):
        w = (v + 1) % len(maps)
        (a, A), (b, B) = (keys[v], maps[v]), (keys[w], maps[w])
        if (a, b) not in seen:
            seen[a, b] = ((B @ A).is_zero()
                          and rank_of(a, A) == dim - rank_of(b, B))
        if not seen[a, b]:
            failed.append(v)
    return failed


def _hexagon(E, ell, m, seen):
    """``hexagon_check`` on the vertices and ranks shared through ``seen``
    (see ``_inexact_vertices``)."""
    N = E.N
    if not (ell >= 1 and m >= 1 and ell + m <= N - 1):
        raise ValueError("need ell, m >= 1 and ell + m <= N - 1")
    H = homology(E)
    k = N - (ell + m)
    # vertices in cyclic order with the arrows entering them:
    # H_(N-l) -> H_(m) -> H_(l+m) -> H_(l) -> H_(N-m) -> H_(N-(l+m)) -> H_(N-l)
    vertices = [m, ell + m, ell, N - m, N - (ell + m), N - ell]
    keys = [("d", m, k), ("i", m, ell), ("d", ell, m), ("i", ell, k),
            ("d", N - (ell + m), ell), ("i", N - (ell + m), m)]
    power = {"i": induced_i_power, "d": induced_d_power}
    maps = [power[key[0]](E, *key[1:]) for key in keys]
    dims = [H[u].dim_H for u in vertices]
    failures = [vertices[v] for v in _inexact_vertices(keys, maps, dims, seen)]
    return {"ok": not failures, "ell": ell, "m": m, "failed_vertices": failures}


def hexagon_check(E, ell, m):
    """Exactness of the hexagon of [i]/[d] powers at all six vertices, read
    from the arrows as ``homology(E).arrows`` holds them now."""
    return _hexagon(E, ell, m, {})


def all_hexagons_check(E):
    """``hexagon_check`` for every (ell, m).  Hexagon (ell, m) is hexagon
    (N-ell-m, ell) turned by two vertices, so most vertices recur: within
    the call each is decided once and each arrow ranked once."""
    seen = {}
    reports = []
    for ell in range(1, E.N - 1):
        for m in range(1, E.N - ell):
            reports.append(_hexagon(E, ell, m, seen))
    return {"ok": all(r["ok"] for r in reports), "hexagons": reports}


def homotopy_criterion_lemma3(E, hs):
    """True iff sum_k d^(N-1-k) h_k d^k = Id; if so, all H_(n) vanish (checked)."""
    if len(hs) != E.N:
        raise ValueError("need N homotopy components h_0..h_(N-1)")
    f = E.field
    total = place_blocks(E.dim, E.dim, f, [
        (0, 0, E.power(E.N - 1 - k) @ h @ E.power(k)) for k, h in enumerate(hs)])
    holds = total == ExactMatrix.identity(E.dim, f)
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
                HG[k].map_to(HE[self.E.N - k], self.connecting(k)),
            )
        return self._homology_maps[k]

    def connecting(self, m):
        """partial: Z_(m)(G) -> Z_(N-m)(E) as a ``ConnectingChain``."""
        return ConnectingChain(self.psi_solver, self.F.power(m),
                               self.phi_solver, self.E.power(self.E.N - m))

    def connect_lift(self, y, Dy, m):
        """partial from a lift y / Dy (numerators over Dy) of a cycle in
        Z_(m)(G); returns the representative x in E-coordinates."""
        return self.connecting(m).from_lift(y, Dy)


@dataclass(frozen=True)
class ConnectingChain:
    """The connecting map of 0 -> E -phi-> F -psi-> G -> 0 on one cycle z of
    G: lift z through psi, apply d^m on F, pull the result back through
    phi and check that it is a d^(N-m)-cycle of E.  It serves Proposition 3
    (``ShortExactSequence.connecting``) and the graded long exact sequences
    (``graded.graded_connecting``, on the maps of the degrees involved).
    It runs on integer numerators and builds scalars only for the
    representative it returns, in E-coordinates."""

    psi: EchelonSolver
    dm: ExactMatrix  # d^m on F, out of the lift's degree
    phi: EchelonSolver
    dk: ExactMatrix  # d^(N-m) on E, out of the result's degree

    def lift(self, z):
        """A psi-preimage of z as ``(numerators, D)`` (``Field.split``)."""
        sol = self.psi.solve_split(*_split_vector(z, self.dm.field))
        if sol is None:
            raise AssertionError("psi must be surjective")
        return sol

    def from_lift(self, y, Dy):
        """The image of a cycle from its lift y / Dy: apply d^m, pull back
        through phi, check the cycle."""
        f = self.dm.field
        sol = self.phi.solve_split(*self.dm.apply_split(y, Dy))
        if sol is None:
            raise AssertionError("d^m of the lift left the image of phi")
        x, Dx = sol
        cycle, _ = self.dk.apply_split(x, Dx)
        if not all(map(f.is_zero, cycle.values())):
            raise AssertionError("connecting image is not a (N-m)-cycle")
        return {j: f.join(n, Dx) for j, n in x.items()}

    def __call__(self, z):
        return self.from_lift(*self.lift(z))


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
    """Exactness of the hexagon (H_n) for each n in {1..N-1}.  The cycle at
    N - n is the cycle at n turned by three vertices: within the call each
    vertex is decided once and each map ranked once (see
    ``_inexact_vertices``)."""
    ses.validate()
    N = ses.E.N
    HE, HF, HG = homology(ses.E), homology(ses.F), homology(ses.G)
    failures, seen = [], {}
    for n in range(1, N):
        keys = [(name, k) for k in (n, N - n)
                for name in ("phi", "psi", "partial")]
        maps = [*ses.homology_maps(n), *ses.homology_maps(N - n)]
        dims = [
            HF[n].dim_H,
            HG[n].dim_H,
            HE[N - n].dim_H,
            HF[N - n].dim_H,
            HG[N - n].dim_H,
            HE[n].dim_H,
        ]
        failures += [(n, v) for v in _inexact_vertices(keys, maps, dims, seen)]
    return {"ok": not failures, "failures": failures}


# -- random instances -------------------------------------------------------


def _jordan_shifts(block_sizes):
    """The rows r of the Jordan sum of D_n blocks of these sizes whose 1 sits
    at (r, r + 1), and its dimension; a size below 1 is refused."""
    shifts, off = [], 0
    for n in block_sizes:
        if n < 1:
            raise ValueError(f"Jordan block size {n} is below 1")
        shifts += range(off, off + n - 1)
        off += n
    return shifts, off


def block_module(field, N, block_sizes):
    """Direct sum of Jordan blocks D_n (1 <= n <= N; a block above N fails
    the d^N = 0 certificate)."""
    shifts, total = _jordan_shifts(block_sizes)
    ent = {(r, r + 1): field.one for r in shifts}
    return NDiffModule(N, ExactMatrix(total, total, field, ent, _clean=False))


def _unimodular_rows(n, rng, nops):
    """The int rows ``{col: value}`` of P and P^-1 for ``random_unimodular``:
    ``nops`` shears (row i += +-row j) and swaps drawn from ``rng``, applied
    in order for P and undone in reverse order for P^-1."""
    if n < 0:
        raise ValueError(f"matrix size {n} is negative")
    if nops is None:
        nops = n + 8
    ops = []  # (i, j, c): row i += c row j, or swap rows i and j for c = 0
    for _ in range(nops):
        swap = rng.random() < 0.25
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        ops.append((i, j, 0 if swap else rng.choice((-1, 1))))

    def apply_ops(sequence):
        rows = [{k: 1} for k in range(n)]
        for i, j, c in sequence:
            if i == j:
                continue
            if not c:
                rows[i], rows[j] = rows[j], rows[i]
                continue
            row = rows[i]
            for col, v in rows[j].items():
                w = row.get(col, 0) + c * v
                if w:
                    row[col] = w
                else:
                    del row[col]
        return rows

    return apply_ops(ops), apply_ops([(i, j, -c) for i, j, c in reversed(ops)])


def _int_matrix(rows, field):
    """The square matrix of the int ``rows``, each distinct value made a
    scalar once: over Q a rational, with the split cache seeded with the
    ints over D = 1; over Q(zeta_M) the tuple (v, 0, ..., 0, 1)."""
    n = len(rows)
    keys = [(r, c) for r, row in enumerate(rows) for c in row]
    vals = [v for row in rows for v in row.values()]
    rational = field.kind == "rationals"
    tail = (0,) * (field.degree - 1) + (1,)
    scalar = {v: rat(v) if rational else (v,) + tail for v in set(vals)}
    M = ExactMatrix(n, n, field, dict(zip(keys, map(scalar.__getitem__, vals))),
                    _clean=False)
    if rational:
        M._split = _flat_columns(keys, vals), 1
    return M


def random_unimodular(n, field, rng, nops=None):
    """Product of elementary shears and swaps; returns (P, P_inverse).  The
    row operations run on ints (default ``nops`` n + 8)."""
    P, Pinv = _unimodular_rows(n, rng, nops)
    return _int_matrix(P, field), _int_matrix(Pinv, field)


def conjugate_blocks(field, sizes, rng, nops=None):
    """d = P J P^-1 for J the Jordan sum of D_n blocks of the given ``sizes``
    and (P, P^-1) as ``random_unimodular`` draws them from ``rng``.  Row r of
    J P^-1 is row r + 1 of P^-1 where J has its 1 at (r, r + 1), and zero
    otherwise, so d is one int product of P's rows with those rows, and
    no block module is built."""
    shifts, n = _jordan_shifts(sizes)
    P, Pinv = _unimodular_rows(n, rng, nops)
    shifted = {r: Pinv[r + 1] for r in shifts}
    rows = []
    for prow in P:
        acc = {}
        for k, p in prow.items():
            if k in shifted:
                for c, q in shifted[k].items():
                    acc[c] = acc.get(c, 0) + p * q
        rows.append({c: v for c, v in acc.items() if v})
    return _int_matrix(rows, field)


def random_ndiff(field, N, dim, rng):
    """Conjugated direct sum of D_n blocks; returns (module, multiplicities).

    d^N = 0 holds by construction (every block is at most N) and the block
    sizes are the ground truth Jordan data."""
    sizes = []
    left = dim
    while left > 0:
        n = rng.randint(1, min(N, left))
        sizes.append(n)
        left -= n
    rng.shuffle(sizes)
    d = conjugate_blocks(field, sizes, rng)
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
