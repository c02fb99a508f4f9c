"""Test scaffolding: example algebras, random and shaped instances and small
constructors that only the tests use.  The package keeps a public name only
when its own code or the benchmark workloads run it (see
``test_source.test_every_public_name_runs``); the tests build their inputs
from these."""

from functools import lru_cache, reduce

from ncomplex.brs import _merge_odd
from ncomplex.cosimplicial import (
    AlgebraData,
    CosimplicialData,
    _product_in_bases,
    simplicial_differential,
)
from ncomplex.fields import QQ, accumulate, make_cyclotomic, rat
from ncomplex.gauge import GaugeInstance
from ncomplex.graded import (
    GradedNComplex,
    GradedSES,
    graded_homology,
    random_graded_complex,
)
from ncomplex.linalg import (
    Echelon,
    EchelonSolver,
    ExactMatrix,
    Subspace,
    image_basis,
    kernel_basis,
    kron,
    orbit_span,
    quotient_maps,
    rank,
    restrict,
)
from ncomplex.ndiff import (
    NDiffModule,
    block_module,
    conjugate_blocks,
    homology,
    induced_d_power,
    induced_i_power,
    random_unimodular,
)
from ncomplex.young import (
    _epsilon3,
    mono_derivative,
    mono_derivative2,
    mono_mul,
    monomials,
)

# -- scalars and matrices ------------------------------------------------------


def random_scalar(field, rng, span=5):
    """A scalar of ``field`` with integer coordinates in [-span, span]."""
    if field.kind == "rationals":
        return rat(rng.randint(-span, span))
    return tuple(rng.randint(-span, span) for _ in range(field.degree)) + (1,)


def from_int_rows(rows, field, ncols=None):
    """The matrix of integer (or rational) rows, as scalars of ``field``."""
    conv = field.from_rat
    return ExactMatrix.from_rows(
        [[conv(v) for v in row] for row in rows], field, ncols
    )


def tuple_index(tup, radix):
    """The mixed-radix index of ``tup``, most significant digit first: the
    row of e_(t_1) ox ... ox e_(t_n) in a ``kron`` of radix-dimensional
    factors; ``linalg.index_tuple`` inverts it."""
    idx = 0
    for t in tup:
        idx = idx * radix + t
    return idx


# -- quotients ------------------------------------------------------------------


class OracleQuotient:
    """Z / B by one elimination of [B | Z reversed], independent of Z's unit
    rows: the Z columns that stay independent modulo B, taken from the last
    one down, are the pivots past B, and one solve of v gives its class as
    the coefficients at those pivots.  It works for any basis of Z, and it
    is the oracle of ``linalg.QuotientSpace``."""

    def __init__(self, Z, B):
        if B.ambient_dim != Z.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        self.Z, self.B = Z, B
        zdim, bdim = Z.dim, B.dim
        self._solver = EchelonSolver(
            B.basis.hstack(Z.basis.take_columns(range(zdim - 1, -1, -1)))
        )
        pivots = self._solver.pivots
        # Z's columns are independent: [B | Z] has rank dim Z iff B lies in Z
        if len(pivots) != zdim:
            raise ValueError("B is not contained in Z")
        # Z's column i is column bdim + zdim - 1 - i of [B | Z reversed]
        self._pivots = [p for p in reversed(pivots) if p >= bdim]
        self.complement_positions = [bdim + zdim - 1 - p for p in self._pivots]
        self.dim = len(self._pivots)

    def representatives(self):
        return self.Z.basis.take_columns(self.complement_positions)

    def coordinates(self, v):
        x = self._solver.solve(v)
        if x is None:
            raise ValueError("vector not in Z")
        return {k: x[p] for k, p in enumerate(self._pivots) if p in x}


def oracle_image_chain(E):
    """``NDiffModule.image_chain`` on kept columns: link 0 is ``image_basis``
    of d and link k+1 ``image_basis`` of d @ (link k's basis), the columns
    d^(k+1) e_j that elimination keeps.  It spans what the chain on echelon
    rows spans, and it is that chain's oracle."""
    chain = [image_basis(E.d)]
    for _ in range(E.N - 1):
        chain.append(image_basis(E.d @ chain[-1].basis))
    return chain


def quotient_map(src, tgt, image):
    """The matrix of ``HomologySlot.map_to`` on the quotients ``src`` and
    ``tgt`` built at once: column j holds tgt's coordinates of the image of
    src's j-th representative."""
    cols = [tgt.coordinates(image(z)) for z in src.representatives().columns()]
    return ExactMatrix.from_columns(cols, tgt.dim, tgt.field)


def link_rows(B):
    """The stored rows of the ``Echelon`` B, in lead order."""
    return [B.leads[c] for c in sorted(B.leads)]


def echelon_rows(M):
    """The rows that an ``Echelon`` of M's columns, absorbed in order, keeps:
    one per lead, in lead order, over Q primitive integer rows.  It is the
    oracle of link 1 of ``linalg.power_images``."""
    E = Echelon(M.field, M.nrows)
    for cols, vals in M.transpose().rows_sparse():
        E.absorb(cols, vals)
    return link_rows(E)


def rows_matrix(rows, n, f):
    """The n-row matrix whose columns are the kernel-format ``rows``, over Q
    integer rows read as rationals."""
    cols = [dict(zip(rc, map(rat, rv) if f.kind == "rationals" else rv))
            for rc, rv in rows]
    return ExactMatrix.from_columns(cols, n, f)


def oracle_echelon_chain(E):
    """``NDiffModule.image_chain`` on explicit products: link 0 holds the
    ``echelon_rows`` of d and link k+1 those of d @ (link k's rows as
    columns), each product an ``ExactMatrix`` split anew.  It is the oracle
    of the chain on ``linalg._power_echelons``, row for row."""
    chain = [echelon_rows(E.d)]
    for _ in range(E.N - 1):
        chain.append(echelon_rows(E.d @ rows_matrix(chain[-1], E.dim, E.field)))
    return chain


def spans_subspace(B, S):
    """Whether the ``Echelon`` B spans what the ``Subspace`` S spans: as many
    leads as S has columns, and every column of S absorbed into a fresh
    copy of B leaves nothing."""
    E = Echelon(B.ops, B.limit, B.leads)
    rows = S.basis.transpose().rows_sparse()
    return len(B.leads) == S.dim and not any(
        E.absorb(cols, vals) is None for cols, vals in rows)


def dense_ndiff(field, N, sizes, rng):
    """The block module with Jordan blocks of the given ``sizes`` (each at
    most N) conjugated by 10 n elementary operations, n = sum(sizes), far
    from block-diagonal, unlike ``random_ndiff``'s n + 8; returns (module,
    multiplicities)."""
    d = conjugate_blocks(field, sizes, rng, nops=10 * sum(sizes))
    truth = {k: sizes.count(k) for k in range(1, N + 1)}
    return NDiffModule(N, d), truth


def oracle_random_unimodular(n, field, rng, nops=None):
    """``ndiff.random_unimodular`` on scalars: the same draws, each shear a
    ``Field`` product and sum on rows of scalars.  It is the oracle of the
    int rows."""
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
    return P, apply_ops(inv_ops)


def oracle_conjugate_blocks(field, sizes, rng, nops=None):
    """``ndiff.conjugate_blocks`` as two ``ExactMatrix`` products: P times
    the d of ``block_module`` times P^-1, with (P, P^-1) from
    ``oracle_random_unimodular``."""
    P, Pinv = oracle_random_unimodular(sum(sizes), field, rng, nops)
    N = max([2, *sizes])
    return P @ block_module(field, N, sizes).d @ Pinv


def oracle_quotient_maps(S):
    """``linalg.quotient_maps`` from ``OracleQuotient``: the class of each
    unit vector by one solve, and the unit vectors at the complement."""
    f, n = S.field, S.ambient_dim
    q = OracleQuotient(Subspace(n, ExactMatrix.identity(n, f)), S)
    proj = ExactMatrix.from_columns(
        [q.coordinates({j: f.one}) for j in range(n)], q.dim, f
    )
    return proj, q.representatives()


# -- exact hexagons --------------------------------------------------------------


def oracle_inexact_vertices(maps, dims):
    """Indices v at which a cycle of maps is not exact: maps[v] enters the
    vertex of dimension dims[v] and maps[v + 1] (cyclically) leaves it.
    Every vertex is decided on its own, with no record across cycles."""
    failed = []
    for v, dim in enumerate(dims):
        incoming, outgoing = maps[v], maps[(v + 1) % len(maps)]
        if (not (outgoing @ incoming).is_zero()
                or rank(incoming) != dim - rank(outgoing)):
            failed.append(v)
    return failed


def hexagon_cycles(E):
    """``(ell, m, vertices, maps)`` for every hexagon of E, in the order of
    ``ndiff.all_hexagons_check``: the vertices H_(u) in cyclic order and the
    [i]/[d] powers entering them, read from ``homology(E).arrows``."""
    N = E.N
    out = []
    for ell in range(1, N - 1):
        for m in range(1, N - ell):
            k = N - (ell + m)
            vertices = [m, ell + m, ell, N - m, N - (ell + m), N - ell]
            maps = [
                induced_d_power(E, m, k),            # H_(N-l) -> H_(m)
                induced_i_power(E, m, ell),          # H_(m) -> H_(l+m)
                induced_d_power(E, ell, m),          # H_(l+m) -> H_(l)
                induced_i_power(E, ell, k),          # H_(l) -> H_(N-m)
                induced_d_power(E, N - (ell + m), ell),  # -> H_(N-(l+m))
                induced_i_power(E, N - (ell + m), m),    # -> H_(N-l)
            ]
            out.append((ell, m, vertices, maps))
    return out


def oracle_all_hexagons(E):
    """``ndiff.all_hexagons_check`` one hexagon at a time, each vertex of each
    hexagon decided afresh: the oracle of the shared-vertex check."""
    H = homology(E)
    reports = []
    for ell, m, vertices, maps in hexagon_cycles(E):
        dims = [H[u].dim_H for u in vertices]
        failures = [vertices[v] for v in oracle_inexact_vertices(maps, dims)]
        reports.append({"ok": not failures, "ell": ell, "m": m,
                        "failed_vertices": failures})
    return {"ok": all(r["ok"] for r in reports), "hexagons": reports}


def ses_cycles(ses):
    """``(n, dims, maps)`` for each Proposition-3 cycle of ``ses``, n = 1..N-1:
    H_(n)(F) -> H_(n)(G) -> H_(N-n)(E) -> H_(N-n)(F) -> H_(N-n)(G) -> H_(n)(E)
    with the maps entering those vertices."""
    N = ses.E.N
    HE, HF, HG = homology(ses.E), homology(ses.F), homology(ses.G)
    return [(n, [HF[n].dim_H, HG[n].dim_H, HE[N - n].dim_H,
                 HF[N - n].dim_H, HG[N - n].dim_H, HE[n].dim_H],
             [*ses.homology_maps(n), *ses.homology_maps(N - n)])
            for n in range(1, N)]


def oracle_ses_hexagons(ses):
    """``ndiff.ses_hexagon_check`` one cycle at a time, each vertex decided
    afresh."""
    ses.validate()
    failures = [(n, v) for n, dims, maps in ses_cycles(ses)
                for v in oracle_inexact_vertices(maps, dims)]
    return {"ok": not failures, "failures": failures}


# -- example algebras ----------------------------------------------------------


def field_algebra(field):
    """A = k."""
    return AlgebraData(
        field, [[{0: field.one}]], unit={0: field.one}, counit={0: field.one}
    )


def matrix_algebra(field, n=2):
    """M_n(k) with the unit-matrix basis e_(r,c) at index r*n + c."""
    f = field
    dim = n * n
    structure = [[{} for _ in range(dim)] for _ in range(dim)]
    for r in range(n):
        for c in range(n):
            for r2 in range(n):
                for c2 in range(n):
                    if c == r2:
                        structure[r * n + c][r2 * n + c2] = {r * n + c2: f.one}
    unit = {k * n + k: f.one for k in range(n)}
    return AlgebraData(f, structure, unit=unit)


def diagonal_algebra(field):
    """k x k with the idempotents e_0, e_1 as basis: its unit e_0 + e_1 is
    no basis vector."""
    f = field
    structure = [[{0: f.one}, {}], [{}, {1: f.one}]]
    return AlgebraData(f, structure, unit={0: f.one, 1: f.one})


def abelian_lie(field, n):
    return AlgebraData(field, [[{} for _ in range(n)] for _ in range(n)], lie=True)


def nonabelian_lie2(field):
    """[e1, e2] = e2."""
    f = field
    structure = [[{}, {1: f.one}], [{1: f.neg(f.one)}, {}]]
    return AlgebraData(f, structure, lie=True)


def sl2(field):
    """Basis (e, f, h): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    f = field
    two = f.from_rat(2)
    E, F, H = 0, 1, 2
    structure = [[{} for _ in range(3)] for _ in range(3)]
    structure[H][E] = {E: two}
    structure[E][H] = {E: f.neg(two)}
    structure[H][F] = {F: f.neg(two)}
    structure[F][H] = {F: two}
    structure[E][F] = {H: f.one}
    structure[F][E] = {H: f.neg(f.one)}
    return AlgebraData(f, structure, lie=True)


def constant_cosimplicial(field, n_max):
    """All levels k, all structure maps the identity: each relation is 1 = 1."""
    one = ExactMatrix.identity(1, field)
    dims = [1] * (n_max + 1)
    cofaces = [[one] * (n + 2) for n in range(n_max)]
    codegens = [[one] * (n + 1) for n in range(n_max)]
    return CosimplicialData(field, dims, cofaces, codegens)


# -- envelopes -----------------------------------------------------------------


def oracle_normalized_subcomplex(E):
    """The simplicial differential restricted to cap_i ker s_i, as
    ``(complex, level_bases)``.  Checks that d preserves the normalized part
    and that the inclusion keeps the cohomology degreewise inside the window.
    It is the oracle of ``universal_envelope``'s words at N = 2."""
    if E.codegens is None:
        raise ValueError("normalization needs codegeneracies")
    f = E.field
    bases = [Subspace.full(E.dims[0], f)]
    for n in range(1, E.n_max + 1):
        stacked = E.codegens[n - 1][0]
        for i in range(1, n):
            stacked = stacked.vstack(E.codegens[n - 1][i])
        bases.append(kernel_basis(stacked))
    full = simplicial_differential(E)
    maps = {}
    for n in range(E.n_max):
        maps[n] = restrict(full.map(n), bases[n], bases[n + 1])
        if maps[n] is None:
            raise ValueError(f"differential does not preserve N^{n}")
    sub = GradedNComplex(
        2, f, {n: bases[n].dim for n in range(E.n_max + 1)}, maps,
        truncated_above=True,
    )
    Hf = graded_homology(full, ms=[1])
    Hs = graded_homology(sub, ms=[1])
    for n in range(E.n_max):
        if Hf.valid(n, 1) and Hs.valid(n, 1):
            if Hf[(n, 1)].dim_H != Hs[(n, 1)].dim_H:
                raise AssertionError(
                    f"normalization changed cohomology at degree {n}"
                )
    return sub, bases


def oracle_omega_q_closure(T, D):
    """Omega_q(A) inside a built T(A) and its d_1 = D as the smallest
    d_1-stable subalgebra that contains A, closed degreewise: the oracle of
    ``cosimplicial._omega_q_words``.

    Semi-naive closure (Bancilhon and Ramakrishnan, SIGMOD 1986): a pass
    forms for degree n only the candidates that use a column added since n
    last closed, d of the new columns of S_(n-1) and P_(a,n-a) of the pairs
    (i, j) with i or j new, in their full-stack order.  Each dropped one was
    an earlier candidate, so it lies in span S_n, which leads the stack: the
    leftmost independent picks, hence the bases, are the full closure's, and
    a degree with no new candidate is not eliminated.  Returns
    (complex-with-product, bases) in T(A) coordinates."""
    f, n_max = T.field, T.n_max
    bases = [Subspace.full(T.dims[0], f)]
    bases += [Subspace.zero(T.dims[n], f) for n in range(1, n_max + 1)]
    # S_k only grows by columns at its end; seen[n][k] counts the columns of
    # S_k that degree n has closed over
    seen = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    changed = True
    while changed:
        changed = False
        for n in range(1, n_max + 1):
            S = [B.basis for B in bases]
            w, seen[n] = seen[n], [M.ncols for M in S]
            m = n - 1
            cols = [D.map(m) @ S[m].take_columns(range(w[m], S[m].ncols))]
            for a in range(n + 1):
                b, cb = n - a, S[n - a].ncols
                pairs = [i * cb + j for i in range(S[a].ncols)
                         for j in range(w[b] if i < w[a] else 0, cb)]
                cols.append(T.product(a, b) @ kron(S[a], S[b]).take_columns(pairs))
            if any(M.ncols for M in cols):
                new = image_basis(reduce(ExactMatrix.hstack, cols, S[n]))
                changed = changed or new.dim != bases[n].dim
                bases[n] = new
    maps = {}
    for n in range(n_max):
        maps[n] = restrict(D.map(n), bases[n], bases[n + 1])
        if maps[n] is None:
            raise AssertionError("closure failed to be d_1-stable")
    prod = _product_in_bases(
        T, bases, "closure failed to be multiplicatively stable"
    )
    C = GradedNComplex(
        D.N, f, {n: bases[n].dim for n in range(n_max + 1)}, maps,
        truncated_above=True, product=prod,
    )
    return C, bases


# -- BRS ghosts ----------------------------------------------------------------


def _key_mul(a, b):
    """Product of two basis keys as (key, sign); (None, 0) when it vanishes."""
    (pa, ma, ca), (pb, mb, cb) = a, b
    pi, s_pi = _merge_odd(pa, pb)
    if pi is None:
        return None, 0
    chi, s_chi = _merge_odd(ca, cb)
    if chi is None:
        return None, 0
    # pi_b crosses the chi_a block on its way left
    return (pi, mono_mul(ma, mb), chi), s_pi * s_chi * (-1) ** (len(ca) * len(pb))


def _add_product(out, left, img, right, scale):
    """out += scale * left img right, for basis keys ``left`` and ``right``;
    distinct terms of ``img`` give distinct products."""
    for key, v in img.items():
        key, s_left = _key_mul(left, key)
        if key is None:
            continue
        key, s_right = _key_mul(key, right)
        if key is not None:
            accumulate(out, key, scale * v if s_left == s_right else -(scale * v))


def leibniz_apply(delta, elem, out):
    """``brs.Antiderivation.apply`` by the generic Leibniz expansion: each
    generator's image multiplied in between the factors left and right of
    it, through ``_key_mul``; the oracle of the spliced differential."""
    for (pis, mono, chis), val in elem.items():
        zero_mono = (0,) * len(mono)
        # pi factors: prefix of k odd factors gives sign (-1)^k
        for k, a in enumerate(pis):
            img = delta.pi_images[a]
            if img:
                _add_product(out, (pis[:k], zero_mono, ()), img,
                             (pis[k + 1:], mono, chis), -val if k % 2 else val)
        # polynomial factor (even); prefix parity = len(pis)
        val_x = -val if len(pis) % 2 else val
        for i, img in enumerate(delta.x_images):
            if img and mono[i]:
                dm, e = mono_derivative(mono, i)
                _add_product(out, (pis, dm, ()), img, ((), zero_mono, chis),
                             val_x * e)
        # chi factors; prefix parity = len(pis) + k
        for k, a in enumerate(chis):
            img = delta.chi_images[a]
            if img:
                _add_product(out, (pis, mono, chis[:k]), img,
                             ((), zero_mono, chis[k + 1:]),
                             -val_x if k % 2 else val_x)
    return out


def ghost_mul(a, b):
    """Product of two elements of Lambda(pi) ox Poly ox Lambda(chi), each a
    term dict keyed by (pi subset, monomial, chi subset) in the canonical
    factor order pi < poly < chi; pi's and chi's are odd, polynomials even."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key, sign = _key_mul(ka, kb)
            if key is not None:
                accumulate(out, key, va * vb * rat(sign))
    return out


def oracle_koszul_image(constraints, pis, mono):
    """delta_0 of pi_S x^m in the Koszul complex of ``constraints``, as a
    ghost-key dict: pi_S[k] removed with the sign (-1)^k and replaced by
    u_(S[k]); the oracle of ``brs._koszul_delta0``."""
    out = {}
    for k in range(len(pis)):
        rest, sgn = pis[:k] + pis[k + 1:], (-1) ** k
        for mu, v in constraints[pis[k]].items():
            accumulate(out, (rest, mono_mul(mono, mu), ()), rat(sgn) * v)
    return out


# -- symmetry spaces -----------------------------------------------------------


@lru_cache(maxsize=None)
def _support_solver(space):
    """The rows of the tensor positions where a basis tensor of ``space`` is
    nonzero, and one ``EchelonSolver`` of the basis read at all of them: the
    solver over all D^p positions without its zero rows."""
    rows = {t: i for i, t in enumerate(sorted(set().union(*space.basis)))}
    solver = EchelonSolver(ExactMatrix.from_columns(
        [{rows[t]: v for t, v in b.items()} for b in space.basis], len(rows), QQ))
    assert solver.rank == space.dim
    return rows, solver


def oracle_symmetry_coords(space, tensor):
    """The coordinates of ``tensor`` in ``space.basis`` by one solve over every
    position of the basis' support, or None when it is not in their span (a
    tensor nonzero off that support is not): the oracle of
    ``young.SymmetrySpace.coords``, which reads only the semistandard
    positions."""
    rows, solver = _support_solver(space)
    tensor = {t: v for t, v in tensor.items() if v}
    if not tensor.keys() <= rows.keys():
        return None
    return solver.solve({rows[t]: v for t, v in tensor.items()})


# -- polynomials ---------------------------------------------------------------


def random_poly(rng, D, degree, span=3):
    """A random homogeneous polynomial of ``degree`` in D variables, with
    integer coefficients in [-span, span]."""
    poly = {}
    for mono in monomials(D, degree):
        c = rng.randint(-span, span)
        if c:
            poly[mono] = rat(c)
    return poly


def oracle_derivation_apply(xi, poly):
    """``brs.Derivation.apply`` monomial by monomial: sum_i coeff_i d/dx_i."""
    out = {}
    for m, v in poly.items():
        for i, coeff in enumerate(xi.coeffs):
            dm, e = mono_derivative(m, i)
            if dm is None:
                continue
            ve = v * rat(e)
            for m2, v2 in coeff.items():
                accumulate(out, mono_mul(dm, m2), ve * v2)
    return out


def oracle_random_divergence_free(rng):
    """``young.random_divergence_free`` as the explicit contraction
    T^(mu nu) = eps^(mu a b) eps^(nu c d) d_a d_c h_(b d), from the same
    draws of ``rng``."""
    D = 3
    eps = _epsilon3()
    h = {}
    for b in range(D):
        for d in range(b, D):
            poly = random_poly(rng, D, 4)
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
                                m2, k = mono_derivative2(mono, a, c)
                                if m2 is not None:
                                    accumulate(acc, m2, e1 * e2 * v * rat(k))
            if acc:
                T[(mu, nu)] = acc
    return T


def oracle_tau(T):
    """The dual tau of ``young.potential_solve``, {mono: tensor} in
    row-major (2, 2) tableau coordinates: tau_(m1 n1, m2 n2) =
    eps^(mu m1 m2) eps^(nu n1 n2) T^(mu nu)."""
    D = 3
    eps = _epsilon3()
    tau_raw = {}
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
    return tau_raw


def oracle_riemann_dual(rho):
    """The R of ``young.potential_solve``:
    R^(lam mu rho nu) = eps^(lam mu a) eps^(rho nu b) rho_(a b)."""
    D = 3
    eps = _epsilon3()
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
    return {k: p for k, p in R.items() if p}


# -- graded complexes ----------------------------------------------------------


def tensor_pos(idx, n, r, s, i, j):
    """The index of e_i ox f_j, from C'^r ox C''^s, in degree n of the
    ``graded.TensorIndex`` idx."""
    return idx.layout[n][(r, s)] + i * idx.C2.dims[s] + j


def to_zgraded(C, lo, hi):
    """Pullback of a cyclic complex along Z -> Z_N (truncated both ways)."""
    if not C.cyclic:
        raise ValueError("to_zgraded needs a cyclic complex")
    dims = {n: C.dims[n % C.N] for n in range(lo, hi + 1)}
    maps = {n: C.maps[n % C.N] for n in range(lo, hi)}
    return GradedNComplex(
        C.N, C.field, dims, maps,
        truncated_below=True, truncated_above=True,
    )


def random_graded_ses(field, N, rng, min_len=1, cyclic=False):
    """SES from a random stable graded subcomplex (span of d-orbits)."""
    wrap = (lambda n: n % N) if cyclic else (lambda n: n)
    while True:
        F = random_graded_complex(
            field, N, rng, 0, 5, strings=rng.randint(4, 7), cyclic=cyclic,
            min_len=min_len,
        )
        # random orbit vectors
        cols = {n: [] for n in F.degrees()}
        for _ in range(rng.randint(1, 3)):
            n = rng.choice(F.degrees())
            if F.dims[n] == 0:
                continue
            v = {
                i: field.from_rat(rng.randint(-2, 2)) for i in range(F.dims[n])
            }
            v = {i: c for i, c in v.items() if not field.is_zero(c)}
            for k in range(N):
                deg = wrap(n + k)
                if deg not in F.dims:
                    break
                if v:
                    cols[deg].append(dict(v))
                M = F.map(deg)
                if M is None:
                    break
                v = M.apply(v)
        subs = {
            n: image_basis(ExactMatrix.from_columns(cols[n], F.dims[n], field))
            for n in F.degrees()
        }
        dimsE = {n: S.dim for n, S in subs.items()}
        if not 0 < sum(dimsE.values()) < sum(F.dims.values()):
            continue
        # restriction and quotient, degreewise
        psi, sections = {}, {}
        for n in F.degrees():
            psi[n], sections[n] = quotient_maps(subs[n])
        mapsE, mapsG = {}, {}
        for n in F.degrees():
            if wrap(n + 1) not in F.dims:
                continue
            M = F.map(n)
            mapsE[n] = restrict(M, subs[n], subs[wrap(n + 1)])
            if mapsE[n] is None:
                raise AssertionError("orbit space must be stable")
            mapsG[n] = psi[wrap(n + 1)] @ M @ sections[n]
        E = GradedNComplex(N, field, dimsE, mapsE, cyclic=cyclic)
        dimsG = {n: p.nrows for n, p in psi.items()}
        G = GradedNComplex(N, field, dimsG, mapsG, cyclic=cyclic)
        phi = {n: S.basis for n, S in subs.items()}
        return GradedSES(E, F, G, phi, psi)


def oracle_graded_connecting(ses, HGs, HEs, j, m):
    """``graded.graded_connecting`` as scalar ``EchelonSolver.solve`` calls:
    lift through psi at degree j, apply d^m, solve through phi at j + m."""
    N = ses.F.N
    tgt_deg = (j + m) % N if ses.F.cyclic else j + m
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

    return HGs[(j, m)].map_to(HEs[(tgt_deg, N - m)], lift)


# -- gauge instances -----------------------------------------------------------


def wznw_shaped_instance(N, rng):
    """dim H = N^4 with a (2N-1)-dimensional stable H_I, mimicking the
    zero-mode profile: one full-length orbit plus one of length N-1."""
    f = make_cyclotomic(2 * N)
    h = N**4
    # block sizes: one N-block and one (N-1)-block supply H_I generators
    sizes = [N, N - 1]
    rest = h - (2 * N - 1)
    while rest > 0:
        s = min(N, rest)
        sizes.append(s)
        rest -= s
    base = block_module(f, N, sizes)
    P, Pinv = random_unimodular(h, f, rng, nops=h // 2)
    A = P @ base.d @ Pinv
    # seeds: the cyclic tops of the first two blocks, conjugated
    P_cols = P.columns()
    v1 = P_cols[0 + N - 1]          # generator of the N-block orbit
    v2 = P_cols[N + (N - 1) - 1]    # generator of the (N-1)-block orbit
    HI = orbit_span(A, (v1, v2), N)
    if HI.dim != 2 * N - 1:
        raise AssertionError(f"H_I has dimension {HI.dim}, not {2 * N - 1}")
    return GaugeInstance(N, A, HI, f.zeta())
