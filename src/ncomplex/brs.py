"""Polynomial-coefficient model of the homological treatment of constrained
systems: Koszul complexes for polynomial constraints, the bigraded ghost
complex with antighosts pi (bidegree (-1,0)) and ghosts chi (bidegree (0,1)),
the antiderivation tower delta_r solved by linear algebra, total BRS
cohomology, and independently computed longitudinal cohomology."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from operator import add, sub

from .fields import QQ, accumulate, check_keys, rat
from .graded import WindowError
from .kernel import Echelon
from .linalg import (
    EchelonSolver,
    ExactMatrix,
    QuotientSpace,
    Subspace,
    _int_key,
    rank,
    span,
)
from .young import mono_derivative, mono_mul, monomials, poly_derivative


# -- polynomials over Q --------------------------------------------------------


def poly_add(a, b, scale=None):
    out = dict(a)
    for m, v in b.items():
        accumulate(out, m, v if scale is None else scale * v)
    return out


def poly_mul(a, b):
    out = {}
    for m1, v1 in a.items():
        for m2, v2 in b.items():
            accumulate(out, mono_mul(m1, m2), v1 * v2)
    return out


def poly_deg(a):
    return max((sum(m) for m in a), default=-1)


def poly_is_homogeneous(a):
    degs = {sum(m) for m in a}
    return len(degs) <= 1


def poly_const(D, c):
    c = rat(c)
    return {(0,) * D: c} if c else {}


def variable(D, i):
    return {variable_mono(D, i): rat(1)}


class Derivation:
    """Polynomial vector field sum_i coeff_i d/dx_i."""

    def __init__(self, D, coeffs):
        self.D = D
        self.coeffs = coeffs

    def apply(self, poly):
        out = {}
        for i, coeff in enumerate(self.coeffs):
            if coeff:
                for dm, v in poly_derivative(poly, i).items():
                    for m2, v2 in coeff.items():
                        accumulate(out, mono_mul(dm, m2), v * v2)
        return out

    def bracket(self, other):
        return Derivation(self.D, [
            poly_add(self.apply(other.coeffs[i]),
                     other.apply(self.coeffs[i]), scale=rat(-1))
            for i in range(self.D)
        ])

    def weight_shift(self):
        """Uniform degree shift on polynomials; None for the zero field."""
        degs = {poly_deg(c) for c in self.coeffs if c}
        if not degs:
            return None
        if len(degs) != 1:
            raise ValueError("vector field is not weight-homogeneous")
        return degs.pop() - 1


@dataclass
class PolyConstraintSystem:
    """Constraints u_alpha (homogeneous), tangent fields xi (homogeneous),
    structure functions C and tangency witnesses A; the closure and tangency
    identities hold exactly and are validated."""

    D: int
    constraints: list          # u_alpha: polys
    fields: list               # xi_alpha': Derivation
    structure: dict            # (a, b, c) -> poly: [xi_b, xi_c] = C^a_(bc) xi_a
    witnesses: dict            # (b, ap, a) -> poly: xi_ap(u_a) = A^b u_b

    @property
    def m(self):
        return len(self.constraints)

    @property
    def m_prime(self):
        return len(self.fields)

    def validate(self):
        if not self.constraints:
            raise ValueError("system constraints must be a nonempty list")
        for u in self.constraints:
            if not u or not poly_is_homogeneous(u):
                raise ValueError("constraints must be nonzero homogeneous")
        for xi in self.fields:
            xi.weight_shift()  # raises if inhomogeneous
        for ap, xi in enumerate(self.fields):
            for a, u in enumerate(self.constraints):
                lhs = xi.apply(u)
                rhs = {}
                for b, ub in enumerate(self.constraints):
                    w = self.witnesses.get((b, ap, a))
                    if w:
                        rhs = poly_add(rhs, poly_mul(w, ub))
                if lhs != rhs:
                    raise ValueError(f"tangency witness fails at xi_{ap}(u_{a})")
        for b in range(self.m_prime):
            for c in range(self.m_prime):
                lhs = self.fields[b].bracket(self.fields[c])
                rhs_coeffs = [{} for _ in range(self.D)]
                for a in range(self.m_prime):
                    Cf = self.structure.get((a, b, c))
                    if Cf:
                        for i in range(self.D):
                            rhs_coeffs[i] = poly_add(
                                rhs_coeffs[i],
                                poly_mul(Cf, self.fields[a].coeffs[i]),
                            )
                if lhs.coeffs != rhs_coeffs:
                    raise ValueError(f"closure fails at [xi_{b}, xi_{c}]")
        return True

    def to_json(self):
        def pj(p):
            return {",".join(map(str, m)): QQ.to_str(v)
                    for m, v in sorted(p.items())}

        return {
            "D": self.D,
            "constraints": [pj(u) for u in self.constraints],
            "fields": [[pj(c) for c in xi.coeffs] for xi in self.fields],
            "structure": {f"{a},{b},{c}": pj(p)
                          for (a, b, c), p in sorted(self.structure.items())},
            "witnesses": {f"{b},{ap},{a}": pj(p)
                          for (b, ap, a), p in sorted(self.witnesses.items())},
        }

    @staticmethod
    def from_json(obj):
        check_keys(obj, "a constraint system",
                   ("D", "constraints", "fields", "structure", "witnesses"))
        D = obj["D"]
        if not isinstance(D, int) or isinstance(D, bool) or D < 1:
            raise ValueError(f"system D must be a positive int, got {D!r}")
        if not (isinstance(obj["constraints"], list) and isinstance(obj["fields"], list)):
            raise ValueError("system constraints and fields must be lists")
        m, m_prime = len(obj["constraints"]), len(obj["fields"])

        def pp(d):
            if not (isinstance(d, dict) and all(isinstance(s, str) for s in d.values())):
                raise ValueError(
                    f"a polynomial must map exponent keys to scalar strings, got {d!r}"
                )
            return {_int_key(k, (None,) * D): QQ.parse(s) for k, s in d.items()}

        def table(name, bounds):
            if not isinstance(obj[name], dict):
                raise ValueError(f"system {name} must be a JSON object")
            return {_int_key(k, bounds): pp(p) for k, p in obj[name].items()}

        if not all(isinstance(xi, list) and len(xi) == D for xi in obj["fields"]):
            raise ValueError(f"each vector field must be a list of {D} polynomials")
        return PolyConstraintSystem(
            D,
            [pp(u) for u in obj["constraints"]],
            [Derivation(D, [pp(c) for c in xi]) for xi in obj["fields"]],
            table("structure", (m_prime,) * 3),
            table("witnesses", (m, m_prime, m)),
        )


# -- exterior bookkeeping ------------------------------------------------------


def _merge_odd(a, b):
    """Sorted merge of two tuples of odd generators with the Koszul sign;
    (None, 0) on a repeated generator."""
    if not b:
        return a, 1
    out = list(a)
    sign = 1
    for x in b:
        if x in out:
            return None, 0
        pos = len(out)
        while pos > 0 and out[pos - 1] > x:
            pos -= 1
        sign *= (-1) ** (len(out) - pos)
        out.insert(pos, x)
    return tuple(out), sign


def _remove_at(subset, k):
    return subset[:k] + subset[k + 1:], (-1) ** k


def _splice(out, img, pis, p_cross, mono, chis, c_cross, parity, scale):
    """out += scale * (-1)^parity * each term t_pi x^t chi_t of ``img``
    spliced in: t_pi merged into ``pis``, t_chi into ``chis`` and x^t added
    onto ``mono``, with the signs of the merges and
    (-1)^(|t_pi| p_cross + |t_chi| c_cross) for the odd factors that each
    word crosses (see ``Antiderivation``)."""
    for (tp, tm, tc), v in img.items():
        pi, s_pi = _merge_odd(pis, tp)
        if pi is None:
            continue
        chi, s_chi = _merge_odd(chis, tc)
        if chi is None:
            continue
        if scale != 1:
            v = v * scale
        if (parity + len(tp) * p_cross + len(tc) * c_cross) & 1:
            s_pi = -s_pi
        accumulate(out, (pi, tuple(map(add, mono, tm)), chi),
                   v if s_pi == s_chi else -v)


class Antiderivation:
    """Degree-1 antiderivation given by generator images (term dicts, {} for
    zero): pi_images[alpha], chi_images[alpha'], x_images[i] (delta_0 has no
    x-images).

    On a key pi_S x^m chi_T each term t_pi x^t chi_t of a generator's image
    is spliced in at the slot of the factor it replaces: t_pi is merged into
    the pi word left once that factor is out, t_chi into the chi word, and
    x^t is added onto the monomial.  A merge sorts the word w t (the
    image's word last).  With L and R the factors left and right of the
    slot in its own word, the Koszul sign is the prefix parity (k for the
    pi slot pi_S[k], |S| for an x slot, |S| + k for the chi slot chi_T[k])
    times the two merge signs times a -1 for each odd pair that the true
    order puts the other way round: |t_pi||R| and |t_chi|(|R| + |T|) for a
    pi slot, |t_chi||T| for an x slot, |t_pi| k and |t_chi||R| for a chi
    slot.  An x slot scales by the exponent of x_i in m; no rational is
    multiplied when the key's coefficient is 1."""

    def __init__(self, pi_images, chi_images, x_images):
        self.pi_images = pi_images
        self.chi_images = chi_images
        self.x_images = x_images

    def apply(self, elem, out=None):
        """The image of ``elem``, added into ``out`` in place when given."""
        if out is None:
            out = {}
        for (pis, mono, chis), val in elem.items():
            npis, nchis = len(pis), len(chis)
            scale = 1 if val == 1 else val
            for k, a in enumerate(pis):
                img = self.pi_images[a]
                if img:
                    nr = npis - k - 1
                    _splice(out, img, pis[:k] + pis[k + 1:], nr, mono, chis,
                            nr + nchis, k, scale)
            for i, img in enumerate(self.x_images):
                if img and mono[i]:
                    dm, e = mono_derivative(mono, i)
                    _splice(out, img, pis, 0, dm, chis, nchis, npis, e * scale)
            for k, a in enumerate(chis):
                img = self.chi_images[a]
                if img:
                    _splice(out, img, pis, k, mono, chis[:k] + chis[k + 1:],
                            nchis - k - 1, npis + k, scale)
        return out


def _koszul_delta0(constraints, mp):
    """The Koszul differential delta_0: the antiderivation that takes pi_alpha
    to the constraint u_alpha and vanishes on the x's and the mp chi's."""
    pi_images = [{((), m, ()): v for m, v in u.items()} for u in constraints]
    return Antiderivation(pi_images, [{}] * mp, [])


class GhostComplex:
    """K = Lambda(pi_1..pi_m) ox Poly(D) ox Lambda(chi^1..chi^m') with the
    antiderivations delta_0, delta_1 and the solved tower delta_r."""

    def __init__(self, system):
        system.validate()
        self.system = system
        self.D = system.D
        self.m = system.m
        self.mp = system.m_prime
        self.deltas = {}
        self.du = [poly_deg(u) for u in system.constraints]
        self.max_step = max(self.du)  # largest poly-degree raise of delta_0
        self.deltas[0] = _koszul_delta0(system.constraints, self.mp)
        self._install_delta1()

    # -- construction -----------------------------------------------------

    def _install_delta1(self):
        D = self.D
        sys = self.system
        x_images = []
        for i in range(D):
            img = {}
            for ap, xi in enumerate(sys.fields):
                for m, v in xi.coeffs[i].items():
                    accumulate(img, ((), m, (ap,)), v)
            x_images.append(img)
        chi_images = []
        for a in range(self.mp):
            img = {}
            for b in range(self.mp):
                for c in range(self.mp):
                    Cf = sys.structure.get((a, b, c))
                    if not Cf:
                        continue
                    chi, sgn = _merge_odd((b,), (c,))
                    if chi is None:
                        continue
                    for m, v in Cf.items():
                        accumulate(img, ((), m, chi), rat(-sgn) * v / 2)
            chi_images.append(img)
        pi_images = []
        for a in range(self.m):
            img = {}
            for b in range(self.m):
                for ap in range(self.mp):
                    A = sys.witnesses.get((b, ap, a))
                    if not A:
                        continue
                    for m, v in A.items():
                        accumulate(img, ((b,), m, (ap,)), -v)
            pi_images.append(img)
        self.deltas[1] = Antiderivation(pi_images, chi_images, x_images)

    # -- generators and identities -----------------------------------------

    def generators(self):
        D = self.D
        zero_mono = (0,) * D
        gens = []
        for a in range(self.m):
            gens.append(("pi", a, {((a,), zero_mono, ()): rat(1)}))
        for a in range(self.mp):
            gens.append(("chi", a, {((), zero_mono, (a,)): rat(1)}))
        for i in range(D):
            gens.append(("x", i, {((), variable_mono(D, i), ()): rat(1)}))
        return gens

    def apply(self, r, elem):
        return self.deltas[r].apply(elem) if r in self.deltas else {}

    def apply_total(self, elem):
        out = {}
        for delta in self.deltas.values():
            delta.apply(elem, out)
        return out

    def anticommutator_sum(self, n, elem):
        """sum_{r+s=n} delta_r delta_s applied to elem, over the installed
        delta's."""
        out = {}
        for r in range(n + 1):
            s = n - r
            if r in self.deltas and s in self.deltas:
                self.deltas[r].apply(self.deltas[s].apply(elem), out)
        return out

    def check_tower_identities(self):
        """sum_{r+s=n} delta_r delta_s = 0 for n up to twice the top delta,
        on every generator; each sum is an even derivation so generators
        suffice."""
        n_max = 2 * (max(self.deltas) if self.deltas else 1)
        for n in range(n_max + 1):
            for kind, idx, g in self.generators():
                if self.anticommutator_sum(n, g):
                    return {"ok": False, "n": n, "generator": (kind, idx)}
        return {"ok": True, "n_max": n_max}

    # -- linear structure on filtered pieces --------------------------------

    def basis(self, npi, nchi, wmax):
        """Basis keys with |pi| = npi, |chi| = nchi, poly deg <= wmax."""
        out = []
        for pis in itertools.combinations(range(self.m), npi):
            for w in range(wmax + 1):
                for mono in monomials(self.D, w):
                    for chis in itertools.combinations(range(self.mp), nchi):
                        out.append((pis, mono, chis))
        return out

    def ghost_basis(self, n, wmax):
        """Basis keys of total ghost degree n = |chi| - |pi|, poly deg <= wmax."""
        out = []
        for npi in range(self.m + 1):
            nchi = n + npi
            if 0 <= nchi <= self.mp:
                out.extend(self.basis(npi, nchi, wmax))
        return out


def _operator_matrix(images, tgt_index):
    """The matrix whose column j is images[j], a {key: value} image of the
    j-th source basis key, in the rows ``tgt_index[key]``; an image term
    outside ``tgt_index`` raises KeyError (the caller must enumerate
    enough)."""
    ent = {}
    for col, img in enumerate(images):
        for k2, v in img.items():
            row = tgt_index.get(k2)
            if row is None:
                raise KeyError(f"image term {k2} outside enumerated window")
            ent[(row, col)] = v
    return ExactMatrix(len(tgt_index), len(images), QQ, ent)


def _index(keys):
    return {k: i for i, k in enumerate(keys)}


def variable_mono(D, i):
    m = [0] * D
    m[i] = 1
    return tuple(m)


# -- the tower -----------------------------------------------------------------


def delta_tower(K, deg_max=8):
    """Solve for delta_r (2 <= r <= min(m', m+1)) from delta_0-exactness:
    {delta_0, delta_r} = -sum_{a+b=r, a,b>=1} delta_a delta_b on generators.

    Each generator image is found by a linear solve in the filtered basis of
    the target bidegree with polynomial degree <= deg_max; raises WindowError
    when the budget is exceeded."""
    r_max = min(K.mp, K.m + 1)
    for r in range(2, r_max + 1):
        pi_images, chi_images, x_images = [], [], []
        for kind, idx, g in K.generators():
            # delta_r is not installed yet, so the sum runs over a, b >= 1
            obstruction = {k: -v for k, v in K.anticommutator_sum(r, g).items()}
            img = _solve_delta0_preimage(K, obstruction, deg_max)
            if kind == "pi":
                pi_images.append(img)
            elif kind == "chi":
                chi_images.append(img)
            else:
                x_images.append(img)
        if not any(pi_images + chi_images + x_images):
            # tower terminates early; do not install a zero map
            continue
        K.deltas[r] = Antiderivation(pi_images, chi_images, x_images)
    report = K.check_tower_identities()
    if not report["ok"]:
        raise AssertionError(f"tower identities fail: {report}")
    return K


def _solve_delta0_preimage(K, obstruction, deg_max):
    """x with delta_0(x) = obstruction, minimal under the deterministic
    pivot rule, solved per bidegree block; {} for a zero obstruction."""
    out = {}
    by_bideg = {}
    for key, v in obstruction.items():
        pis, _, chis = key
        by_bideg.setdefault((len(pis), len(chis)), {})[key] = v
    for (npi, nchi), block in by_bideg.items():
        wmax = max(sum(m) for (_, m, _) in block)
        if wmax > deg_max:
            raise WindowError("obstruction exceeds the polynomial budget")
        src_keys = K.basis(npi + 1, nchi, deg_max)
        tgt_index = _index(K.basis(npi, nchi, deg_max + K.max_step))
        M = _operator_matrix(
            [K.apply(0, {k: rat(1)}) for k in src_keys], tgt_index
        )
        sol = EchelonSolver(M).solve({tgt_index[k]: v for k, v in block.items()})
        if sol is None:
            raise WindowError(
                "delta_0-preimage not found within the degree budget"
            )
        out.update((src_keys[col], v) for col, v in sol.items())
    return out


# -- cohomology ----------------------------------------------------------------


def _integer_row(img):
    """(img * den as {key: int}, den) for a {key: rational} image, den the
    least common denominator."""
    den = lcm(*(v.denominator for v in img.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in img.items()}, den


def _leibniz_rows(K):
    """row(key) = (d(key) * den as {key: int}, den) on the ghost keys, d the
    total differential.  x^m is even and central, so by Leibniz
    d(pi_S x^m chi_T) = x^m P + sum_i m_i x^(m - e_i) X_i, with P =
    d(pi_S chi_T) and X_i = d(pi_S x_i chi_T) - x_i P.  P and x^(-e_i) X_i
    = x^(-e_i) d(pi_S x_i chi_T) - P are imaged once per word pair (S, T),
    over one common denominator; a key's row adds m to their monomials, in
    integers."""
    zero, pairs = (0,) * K.D, {}

    def words(pis, chis):
        P = K.apply_total({(pis, zero, chis): rat(1)})
        parts = [P]
        for e in (variable_mono(K.D, i) for i in range(K.D)):
            X = {(tp, tuple(map(sub, tm, e)), tc): v for (tp, tm, tc), v
                 in K.apply_total({(pis, e, chis): rat(1)}).items()}
            for k, v in P.items():
                accumulate(X, k, -v)
            parts.append(X)
        den = lcm(*(v.denominator for img in parts for v in img.values()))
        return [[(*k, v.numerator * (den // v.denominator)) for k, v in img.items()]
                for img in parts], den

    def row(key):
        pis, mono, chis = key
        if (pis, chis) not in pairs:
            pairs[pis, chis] = words(pis, chis)
        (P, *Xs), den = pairs[pis, chis]
        out = {(tp, tuple(map(add, tm, mono)), tc): v for tp, tm, tc, v in P}
        for e, X in zip(mono, Xs):
            if e:
                for tp, tm, tc, v in X:
                    k = (tp, tuple(map(add, tm, mono)), tc)
                    out[k] = out.get(k, 0) + e * v
        return {k: v for k, v in out.items() if v}, den

    return row


def _filtered_cohomology_dims(n_top, basis, row, degree, wmax, drop, up):
    """[dim H^n on F, the keys of degree <= wmax, for n = 0..n_top] of a
    complex whose C^n has the keys basis(n, w) of degree <= w and is 0 past
    n_top; row(key) is (a nonzero multiple of d(key) as {key: int}, any),
    d raising degree by at most ``up`` and lowering it by at most ``drop``.

    One ``Echelon`` per differential C^n -> C^(n+1) takes the rows on the
    target keys ordered by descending degree: first the sources in F, after
    which dim Z^n = |F^n| - rank, then those up to wmax + drop, which
    complete im d cap F.  A stored row led inside F lies in F, since every
    column after its lead does, and the rows led outside F are independent
    there, so dim B^(n+1) = rank - rank of the overflow part is the number
    of leads inside F.  An image term past the target keys raises KeyError."""
    def absorb(E, index, keys, window):
        for key in keys:
            try:
                ent = sorted((index[k], v) for k, v in row(key)[0].items())
            except KeyError as exc:
                raise KeyError(f"image term {exc.args[0]} outside the enumerated "
                               f"window of degree <= {window}") from None
            if ent:
                E.absorb([c for c, _ in ent], [v for _, v in ent])
        return len(E.leads)

    dims, dim_B = [], 0
    for n in range(-1, n_top + 1):
        top = wmax + drop if n < n_top else wmax
        src = basis(n, top)
        tgt = sorted(basis(n + 1, top + up) if src else [], key=degree, reverse=True)
        index, E = _index(tgt), Echelon(QQ, len(tgt))
        low = [k for k in src if degree(k) <= wmax]
        dim_Z = len(low) - absorb(E, index, low, top + up)
        absorb(E, index, [k for k in src if degree(k) > wmax], top + up)
        if n >= 0:
            dims.append(dim_Z - dim_B)
        dim_B = sum(degree(tgt[c]) <= wmax for c in E.leads)
    return dims


def brs_cohomology(K, wmax):
    """[dim H^n(delta) for n = 0..m'] on the filtration by polynomial degree
    <= wmax, from the rows of ``_leibniz_rows``."""
    return _filtered_cohomology_dims(
        K.mp, K.ghost_basis, _leibniz_rows(K), lambda key: sum(key[1]), wmax,
        _max_poly_drop(K), _max_poly_raise(K))


def _max_poly_raise(K):
    """Largest polynomial-degree increase over all delta components."""
    raise_ = K.max_step
    for delta in K.deltas.values():
        for images, shift in ((delta.pi_images, 0), (delta.chi_images, 0),
                              (delta.x_images, 1)):
            for img in images:
                for (_, m, _) in img:
                    raise_ = max(raise_, sum(m) - shift)
    return raise_


def _max_poly_drop(K):
    """Largest polynomial-degree decrease: only x-images with terms of poly
    degree < 1 (constant vector field components) lower the degree."""
    drop = 0
    for delta in K.deltas.values():
        for img in delta.x_images:
            for (_, m, _) in img:
                drop = max(drop, 1 - sum(m))
    return drop


# -- Koszul complex -------------------------------------------------------------


def koszul_homology(constraints, D, deg_max):
    """H^(-n) of the Koszul complex of (u_1..u_m) per polynomial weight, with
    the ghost complex's delta_0 on the keys (pis, mono, ()).

    Homogeneous constraints make the complex weight-graded with
    weight(pi_alpha) = deg u_alpha, so every weight block is finite and
    exact."""
    for u in constraints:
        if not poly_is_homogeneous(u) or not u:
            raise ValueError("constraints must be nonzero homogeneous")
    m = len(constraints)
    du = [poly_deg(u) for u in constraints]
    delta0 = _koszul_delta0(constraints, 0)

    def basis(n, w):
        """Keys (pis, mono, ()) with |pis| = n and weight w."""
        if n < 0:
            return []
        return [(pis, mono, ()) for pis in itertools.combinations(range(m), n)
                for mono in monomials(D, w - sum(du[a] for a in pis))]

    def d0_rank(n, w):
        """rank of delta_0 out of the keys basis(n, w)."""
        images = [delta0.apply({key: rat(1)}) for key in basis(n, w)]
        return rank(_operator_matrix(images, _index(basis(n - 1, w))))

    dims = {}
    for n in range(m + 1):
        for w in range(deg_max + 1):
            src = basis(n, w)
            dims[(-n, w)] = len(src) - d0_rank(n, w) - d0_rank(n + 1, w) if src else 0
    return dims


# -- longitudinal cohomology ----------------------------------------------------


class LongitudinalComplex:
    """Chevalley-Eilenberg-style complex on Poly/(u) ox Lambda(chi) with the
    induced xi-action: the independent side of the comparison theorem."""

    def __init__(self, system, deg_max):
        self.system = system
        self.D = system.D
        self.mp = system.m_prime
        self.deg_max = deg_max
        self._quotients = {}

    def quotient(self, w):
        """(monomials, their index, Poly_w / (u)_w) with deterministic
        representatives, for w <= deg_max; built the first time it is read."""
        if w > self.deg_max:
            raise ValueError("polynomial degree exceeds the stored budget")
        if w not in self._quotients:
            monos = monomials(self.D, w)
            mindex = _index(monos)
            # the ideal (u)_w is spanned by the products mono * u_a
            products = [{mindex[mono_mul(mono, mu)]: v for mu, v in u.items()}
                        for u in self.system.constraints
                        for mono in monomials(self.D, w - poly_deg(u))]
            ideal = span(ExactMatrix.from_columns(products, len(monos), QQ))
            full = Subspace.full(len(monos), QQ)
            self._quotients[w] = (monos, mindex, QuotientSpace(full, ideal))
        return self._quotients[w]

    def reduce_poly(self, poly):
        """Class of a polynomial: {(w, class index) -> value}."""
        out = {}
        by_w = {}
        for m, v in poly.items():
            by_w.setdefault(sum(m), {})[m] = v
        for w, part in by_w.items():
            monos, mindex, q = self.quotient(w)
            vec = {mindex[m]: v for m, v in part.items()}
            for i, v in q.coordinates(vec).items():
                out[(w, i)] = v
        return out

    def rep_poly(self, w, i):
        monos, mindex, q = self.quotient(w)
        pos = q.complement_positions[i]
        return {monos[pos]: rat(1)}

    def basis(self, s, wmax):
        """(w, class index, chi subset) of ghost degree s, poly degree <= wmax."""
        if s < 0:
            return []
        out = []
        for w in range(min(wmax, self.deg_max) + 1):
            qdim = self.quotient(w)[2].dim
            for i in range(qdim):
                for chis in itertools.combinations(range(self.mp), s):
                    out.append((w, i, chis))
        return out

    def differential(self, key):
        """d_F applied to a basis element f ox chi_S."""
        w, i, chis = key
        sys = self.system
        out = {}
        f = self.rep_poly(w, i)
        # xi_(a')(f) chi^(a') wedge chi_S
        for ap, xi in enumerate(sys.fields):
            df = xi.apply(f)
            if not df:
                continue
            merged, sgn = _merge_odd((ap,), chis)
            if merged is None:
                continue
            for (w2, i2), v in self.reduce_poly(df).items():
                accumulate(out, (w2, i2, merged), rat(sgn) * v)
        # -1/2 C^a_(bc) chi^b chi^c in place of each chi slot
        for k in range(len(chis)):
            a = chis[k]
            rest, sgn_rm = _remove_at(chis, k)
            for b in range(self.mp):
                for c in range(self.mp):
                    Cf = sys.structure.get((a, b, c))
                    if not Cf:
                        continue
                    pair, sgn_p = _merge_odd((b,), (c,))
                    if pair is None:
                        continue
                    merged, sgn_m = _merge_odd(pair, rest)
                    if merged is None:
                        continue
                    prod = poly_mul(Cf, f)
                    coeff = rat(-sgn_rm * sgn_p * sgn_m) / 2
                    for (w2, i2), v in self.reduce_poly(prod).items():
                        accumulate(out, (w2, i2, merged), coeff * v)
        return out

    def cohomology_dims(self, wmax):
        """[dim H^s for s = 0..m'] of the longitudinal forms of poly degree <=
        wmax.  B needs sources up to wmax + drop (the largest degree drop of
        the fields), so a window past the stored deg_max raises WindowError
        rather than cut B off; an image past deg_max raises ValueError."""
        shifts = [0] + [xi.weight_shift() or 0 for xi in self.system.fields]
        pad = max(shifts) + max([0, *map(poly_deg, self.system.structure.values())])
        drop = -min(shifts)
        if wmax + drop > self.deg_max:
            raise WindowError(
                f"H^*(<= {wmax}) needs polynomial degree {wmax + drop}, "
                f"past the stored {self.deg_max}"
            )
        return _filtered_cohomology_dims(
            self.mp, self.basis, lambda key: _integer_row(self.differential(key)),
            lambda key: key[0], wmax, drop, pad)


def theorem4_verify(system, deg_max, wmax=None):
    """dim H^n(delta) (poly-filtered) equals the longitudinal cohomology
    dimension, per ghost degree n and cumulative polynomial degree.

    The longitudinal side admits degrees <= deg_max + 2 * raise (raise the
    largest polynomial-degree increase of the tower) and builds only those
    the window reads, so the window must keep wmax + drop <= deg_max +
    2 * raise (drop the largest decrease of the fields); the default wmax =
    max(deg_max - 2 * raise, 1) does.  A window past it raises WindowError,
    a negative wmax ValueError."""
    if deg_max < 0:
        raise ValueError(f"deg_max must be >= 0, got {deg_max}")
    if wmax is not None and wmax < 0:
        raise ValueError(f"wmax must be >= 0, got {wmax}")
    K = GhostComplex(system)
    delta_tower(K, deg_max=deg_max)
    if wmax is None:
        wmax = max(deg_max - 2 * _max_poly_raise(K), 1)
    L = LongitudinalComplex(system, deg_max + 2 * _max_poly_raise(K))
    dims = list(zip(brs_cohomology(K, wmax), L.cohomology_dims(wmax)))
    return {"ok": all(lhs == rhs for lhs, rhs in dims),
            "details": {f"H^{n}(<= {wmax})": pair for n, pair in enumerate(dims)},
            "tower_orders": sorted(K.deltas)}


# -- derivation-based forms (free foliations of a polynomial algebra) -----------


def derivation_forms_cohomology(D, fields, s_range, deg_max):
    """Longitudinal-forms complex for a bracket-closed family of derivations
    acting on Poly(D) (no constraints): returns dims of H^s filtered by
    polynomial degree <= deg_max.  The constant structure functions solve
    [xi_b, xi_c] = sum_a C^a xi_a on the stacked coefficient vectors."""

    def stacked(xi):
        return {(i, m): v for i, c in enumerate(xi.coeffs) for m, v in c.items()}

    brackets = {(b, c): stacked(xb.bracket(xc))
                for b, xb in enumerate(fields) for c, xc in enumerate(fields)}
    vecs = [stacked(xi) for xi in fields]
    index = _index(dict.fromkeys(k for v in [*vecs, *brackets.values()] for k in v))
    solver = EchelonSolver(_operator_matrix(vecs, index))
    structure = {}
    for (b, c), br in brackets.items():
        C = solver.solve({index[k]: v for k, v in br.items()})
        if C is None:
            raise ValueError("family is not closed with constant structure")
        structure.update({(a, b, c): poly_const(D, v) for a, v in C.items()})
    system = PolyConstraintSystem(D, [], fields, structure, {})
    dims = LongitudinalComplex(system, deg_max).cohomology_dims(deg_max - 1)
    return {s: dims[s] for s in s_range}


# -- shipped example systems -----------------------------------------------------


def abelian_system():
    """u = (p1, p2) on Q^4 = (x1, x2, p1, p2), xi = (d/dx1, d/dx2)."""
    D = 4
    u1 = variable(D, 2)
    u2 = variable(D, 3)
    xi1 = Derivation(D, [poly_const(D, 1), {}, {}, {}])
    xi2 = Derivation(D, [{}, poly_const(D, 1), {}, {}])
    return PolyConstraintSystem(D, [u1, u2], [xi1, xi2], {}, {})


def twisted_nonabelian_system():
    """u = (z1, z2) on Q^3 = (x, z1, z2), xi = (d/dx, x d/dx), nonabelian
    ([xi_1, xi_2] = xi_1) with syzygy-twisted tangency witnesses
    A_(xi_1) = [[z2, -z1], [0, 0]] making delta_1^2 != 0."""
    D = 3
    z1 = variable(D, 1)
    z2 = variable(D, 2)
    xi1 = Derivation(D, [poly_const(D, 1), {}, {}])
    x = variable(D, 0)
    xi2 = Derivation(D, [x, {}, {}])
    structure = {(0, 0, 1): poly_const(D, 1), (0, 1, 0): poly_const(D, -1)}
    # xi_1(z1) = 0 = z2 * z1 + (-z1) * z2 : a nonzero antisymmetric witness
    witnesses = {
        (0, 0, 0): z2,              # A^1_(xi1, u1) = z2
        (1, 0, 0): {k: -v for k, v in z1.items()},  # A^2_(xi1, u1) = -z1
    }
    return PolyConstraintSystem(
        D, [z1, z2], [xi1, xi2], structure, witnesses
    )


def quadratic_toy_system():
    """First-class quadratic constraint u = x1 p2 - x2 p1 (angular momentum)
    on T*Q^2 with its hamiltonian vector field; m' = 1 so delta_r = 0
    structurally for r >= 2."""
    D = 4  # (x1, x2, p1, p2)
    x1, x2 = variable(D, 0), variable(D, 1)
    p1, p2 = variable(D, 2), variable(D, 3)
    u = poly_add(poly_mul(x1, p2), poly_mul(x2, p1), scale=rat(-1))
    neg = lambda p: {k: -v for k, v in p.items()}
    xi = Derivation(D, [neg(x2), x1, neg(p2), p1])
    return PolyConstraintSystem(D, [u], [xi], {}, {})
