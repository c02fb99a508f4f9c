"""Test scaffolding: example algebras, random and shaped instances and small
constructors that only the tests use.  The package keeps a public name only
when its own code or the benchmark workloads run it (see
``test_source.test_every_public_name_runs``); the tests build their inputs
from these."""

from ncomplex.brs import _key_mul
from ncomplex.cosimplicial import AlgebraData, CosimplicialData
from ncomplex.fields import accumulate, make_cyclotomic, rat
from ncomplex.gauge import GaugeInstance
from ncomplex.graded import GradedNComplex, GradedSES, random_graded_complex
from ncomplex.linalg import (
    ExactMatrix,
    image_basis,
    orbit_span,
    quotient_maps,
    restrict,
)
from ncomplex.ndiff import block_module, random_unimodular

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


# -- BRS ghosts ----------------------------------------------------------------


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


# -- graded complexes ----------------------------------------------------------


def to_zgraded(C, lo, hi):
    """Pullback of a cyclic complex along Z -> Z_N (truncated both ways)."""
    if not C.cyclic:
        raise ValueError("to_zgraded needs a cyclic complex")
    dims = {n: C.dims[n % C.N] for n in range(lo, hi + 1)}
    maps = {n: C.maps[n % C.N] for n in range(lo, hi)}
    return GradedNComplex(
        C.N, C.field, dims, maps,
        truncated_below=True, truncated_above=True, check=False,
    )


def random_graded_ses(field, N, rng, min_len=1):
    """SES from a random stable graded subcomplex (span of d-orbits)."""
    while True:
        F = random_graded_complex(
            field, N, rng, 0, 5, strings=rng.randint(4, 7), min_len=min_len
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
                deg = n + k
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
            if n + 1 not in F.dims:
                continue
            M = F.map(n)
            mapsE[n] = restrict(M, subs[n], subs[n + 1])
            if mapsE[n] is None:
                raise AssertionError("orbit space must be stable")
            mapsG[n] = psi[n + 1] @ M @ sections[n]
        E = GradedNComplex(N, field, dimsE, mapsE)
        dimsG = {n: p.nrows for n, p in psi.items()}
        G = GradedNComplex(N, field, dimsG, mapsG)
        phi = {n: S.basis for n, S in subs.items()}
        return GradedSES(E, F, G, phi, psi)


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
