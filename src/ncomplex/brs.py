"""Polynomial-coefficient model of the homological treatment of constrained
systems: Koszul complexes for polynomial constraints, the bigraded ghost
complex with antighosts pi (bidegree (-1,0)) and ghosts chi (bidegree (0,1)),
the antiderivation tower delta_r solved by linear algebra, total BRS
cohomology, and independently computed longitudinal cohomology."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import QQ, accumulate, rat
from .linalg import (
    EchelonSolver,
    ExactMatrix,
    QuotientSpace,
    Subspace,
    _int_key,
    image_basis,
    kernel_basis,
)
from .young import monomials


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
            accumulate(out, tuple(x + y for x, y in zip(m1, m2)), v1 * v2)
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
    m = [0] * D
    m[i] = 1
    return {tuple(m): rat(1)}


class Derivation:
    """Polynomial vector field sum_i coeff_i d/dx_i."""

    def __init__(self, D, coeffs):
        self.D = D
        self.coeffs = coeffs

    def apply(self, poly):
        out = {}
        for m, v in poly.items():
            for i in range(self.D):
                if m[i] == 0 or not self.coeffs[i]:
                    continue
                dm = list(m)
                dm[i] -= 1
                out = poly_add(out, poly_mul({tuple(dm): v * rat(m[i])},
                                             self.coeffs[i]))
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
        keys = ("D", "constraints", "fields", "structure", "witnesses")
        if not (isinstance(obj, dict) and set(keys) <= obj.keys()):
            raise ValueError(
                "a constraint system must be a JSON object with keys " + ", ".join(keys)
            )
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


class GhostElement:
    """Element of Lambda(pi) ox Poly ox Lambda(chi); terms keyed by
    (pi subset, monomial, chi subset), canonical factor order pi < poly < chi."""

    __slots__ = ("D", "terms")

    def __init__(self, D, terms=None):
        self.D = D
        self.terms = terms if terms is not None else {}

    def add_term(self, key, val):
        accumulate(self.terms, key, val)

    def add(self, other, scale=None):
        out = GhostElement(self.D, dict(self.terms))
        for k, v in other.terms.items():
            out.add_term(k, v if scale is None else scale * v)
        return out

    def scaled(self, c):
        if not c:
            return GhostElement(self.D)
        return GhostElement(self.D, {k: c * v for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GhostElement) and self.terms == other.terms

    def __repr__(self):
        return f"GhostElement({self.terms})"


def ghost_mul(a, b):
    """Product; pi's and chi's are odd, polynomials even."""
    out = GhostElement(a.D)
    for (pa, ma, ca), va in a.terms.items():
        for (pb, mb, cb), vb in b.terms.items():
            pi, s_pi = _merge_odd(pa, pb)
            if pi is None:
                continue
            chi, s_chi = _merge_odd(ca, cb)
            if chi is None:
                continue
            # pi_b crosses the chi_a block on its way left
            sign = s_pi * s_chi * (-1) ** (len(ca) * len(pb))
            mono = tuple(x + y for x, y in zip(ma, mb))
            out.add_term((pi, mono, chi), va * vb * rat(sign))
    return out


class Antiderivation:
    """Degree-1 antiderivation given by generator images (GhostElements or
    None for zero): pi_images[alpha], chi_images[alpha'], x_images[i]."""

    def __init__(self, complex_, pi_images, chi_images, x_images):
        self.K = complex_
        self.pi_images = pi_images
        self.chi_images = chi_images
        self.x_images = x_images

    def apply(self, elem):
        D = elem.D
        out = GhostElement(D)
        zero_mono = (0,) * D
        for (pis, mono, chis), val in elem.terms.items():
            # pi factors: prefix of k odd factors gives sign (-1)^k
            for k in range(len(pis)):
                img = self.pi_images[pis[k]]
                if img is None or img.is_zero():
                    continue
                rest, _ = _remove_at(pis, k)
                prefix = GhostElement(D, {(pis[:k], zero_mono, ()): rat(1)})
                suffix = GhostElement(D, {(pis[k + 1:], mono, chis): rat(1)})
                term = ghost_mul(ghost_mul(prefix, img), suffix)
                out = out.add(term, scale=val * rat((-1) ** k))
            # polynomial factor (even); prefix parity = len(pis)
            if self.x_images is not None and any(mono):
                par = rat((-1) ** len(pis))
                for i in range(D):
                    if mono[i] == 0:
                        continue
                    img = self.x_images[i]
                    if img is None or img.is_zero():
                        continue
                    dm = list(mono)
                    dm[i] -= 1
                    prefix = GhostElement(
                        D, {(pis, tuple(dm), ()): rat(mono[i])}
                    )
                    suffix = GhostElement(D, {((), zero_mono, chis): rat(1)})
                    term = ghost_mul(ghost_mul(prefix, img), suffix)
                    out = out.add(term, scale=val * par)
            # chi factors; prefix parity = len(pis) + k
            for k in range(len(chis)):
                img = self.chi_images[chis[k]]
                if img is None or img.is_zero():
                    continue
                prefix = GhostElement(D, {(pis, mono, chis[:k]): rat(1)})
                suffix = GhostElement(D, {((), zero_mono, chis[k + 1:]): rat(1)})
                term = ghost_mul(ghost_mul(prefix, img), suffix)
                out = out.add(term, scale=val * rat((-1) ** (len(pis) + k)))
        return out


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
        self._install_delta0()
        self._install_delta1()

    # -- construction -----------------------------------------------------

    def _install_delta0(self):
        D = self.D
        pi_images = [
            GhostElement(D, {((), m, ()): v for m, v in u.items()})
            for u in self.system.constraints
        ]
        self.deltas[0] = Antiderivation(self, pi_images,
                                        [None] * self.mp, None)

    def _install_delta1(self):
        D = self.D
        sys = self.system
        x_images = []
        for i in range(D):
            img = GhostElement(D)
            for ap, xi in enumerate(sys.fields):
                for m, v in xi.coeffs[i].items():
                    img.add_term(((), m, (ap,)), v)
            x_images.append(img if not img.is_zero() else None)
        chi_images = []
        for a in range(self.mp):
            img = GhostElement(D)
            for b in range(self.mp):
                for c in range(self.mp):
                    Cf = sys.structure.get((a, b, c))
                    if not Cf:
                        continue
                    chi, sgn = _merge_odd((b,), (c,))
                    if chi is None:
                        continue
                    for m, v in Cf.items():
                        img.add_term(((), m, chi), rat(-sgn) * v / 2)
            chi_images.append(img if not img.is_zero() else None)
        pi_images = []
        for a in range(self.m):
            img = GhostElement(D)
            for b in range(self.m):
                for ap in range(self.mp):
                    A = sys.witnesses.get((b, ap, a))
                    if not A:
                        continue
                    for m, v in A.items():
                        img.add_term(((b,), m, (ap,)), -v)
            pi_images.append(img if not img.is_zero() else None)
        self.deltas[1] = Antiderivation(self, pi_images, chi_images, x_images)

    # -- generators and identities -----------------------------------------

    def generators(self):
        D = self.D
        zero_mono = (0,) * D
        gens = []
        for a in range(self.m):
            gens.append(("pi", a, GhostElement(D, {((a,), zero_mono, ()): rat(1)})))
        for a in range(self.mp):
            gens.append(("chi", a, GhostElement(D, {((), zero_mono, (a,)): rat(1)})))
        for i in range(D):
            gens.append(("x", i, GhostElement(D, {((), variable_mono(D, i), ()): rat(1)})))
        return gens

    def apply(self, r, elem):
        if r not in self.deltas:
            return GhostElement(self.D)
        return self.deltas[r].apply(elem)

    def apply_total(self, elem):
        out = GhostElement(self.D)
        for r in self.deltas:
            out = out.add(self.apply(r, elem))
        return out

    def anticommutator_sum(self, n, elem):
        """sum_{r+s=n} delta_r delta_s applied to elem."""
        out = GhostElement(self.D)
        for r in range(n + 1):
            s = n - r
            if r in self.deltas and s in self.deltas:
                out = out.add(self.apply(r, self.apply(s, elem)))
        return out

    def check_tower_identities(self, n_max=None):
        """sum_{r+s=n} delta_r delta_s = 0 for all n, on every generator;
        each sum is an even derivation so generators suffice."""
        if n_max is None:
            n_max = 2 * (max(self.deltas) if self.deltas else 1)
        for n in range(n_max + 1):
            for kind, idx, g in self.generators():
                if not self.anticommutator_sum(n, g).is_zero():
                    return {"ok": False, "n": n, "generator": (kind, idx)}
        return {"ok": True, "n_max": n_max}

    # -- linear structure on filtered pieces --------------------------------

    def basis(self, npi, nchi, wmax, wmin=0):
        """Basis keys with |pi| = npi, |chi| = nchi, wmin <= poly deg <= wmax."""
        out = []
        for pis in itertools.combinations(range(self.m), npi):
            for w in range(wmin, wmax + 1):
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

    def matrix_of(self, operator, src_keys, tgt_index):
        """Matrix of an element-valued operator on basis keys; image terms
        outside tgt_index raise (the caller must enumerate enough)."""
        ent = {}
        for col, key in enumerate(src_keys):
            img = operator(GhostElement(self.D, {key: rat(1)}))
            for k2, v in img.terms.items():
                row = tgt_index.get(k2)
                if row is None:
                    raise KeyError(f"image term {k2} outside enumerated window")
                ent[(row, col)] = v
        return ExactMatrix(len(tgt_index), len(src_keys), QQ, ent)


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
    from .graded import WindowError

    r_max = min(K.mp, K.m + 1)
    for r in range(2, r_max + 1):
        pi_images, chi_images, x_images = [], [], []
        for kind, idx, g in K.generators():
            obstruction = GhostElement(K.D)
            for a in range(1, r):
                b = r - a
                if a in K.deltas and b in K.deltas:
                    obstruction = obstruction.add(K.apply(a, K.apply(b, g)))
            obstruction = obstruction.scaled(rat(-1))
            if obstruction.is_zero():
                img = None
            else:
                img = _solve_delta0_preimage(K, obstruction, deg_max)
            if kind == "pi":
                pi_images.append(img)
            elif kind == "chi":
                chi_images.append(img)
            else:
                x_images.append(img)
        if all(i is None for i in pi_images + chi_images + x_images):
            # tower terminates early; do not install a zero map
            continue
        K.deltas[r] = Antiderivation(K, pi_images, chi_images, x_images)
    report = K.check_tower_identities()
    if not report["ok"]:
        raise AssertionError(f"tower identities fail: {report}")
    return K


def _solve_delta0_preimage(K, obstruction, deg_max):
    """x with delta_0(x) = obstruction, minimal under the deterministic
    pivot rule, solved per bidegree block."""
    from .graded import WindowError

    out = GhostElement(K.D)
    by_bideg = {}
    for (pis, mono, chis), v in obstruction.terms.items():
        by_bideg.setdefault((len(pis), len(chis)), GhostElement(K.D)).add_term(
            (pis, mono, chis), v
        )
    for (npi, nchi), block in by_bideg.items():
        wmax = max(sum(m) for (_, m, _) in block.terms)
        if wmax > deg_max:
            raise WindowError("obstruction exceeds the polynomial budget")
        src_keys = K.basis(npi + 1, nchi, deg_max)
        tgt_keys = K.basis(npi, nchi, deg_max + K.max_step)
        tgt_index = {k: i for i, k in enumerate(tgt_keys)}
        M = K.matrix_of(lambda e: K.apply(0, e), src_keys, tgt_index)
        b = {}
        for k, v in block.terms.items():
            b[tgt_index[k]] = v
        sol = EchelonSolver(M).solve(b)
        if sol is None:
            raise WindowError(
                "delta_0-preimage not found within the degree budget"
            )
        for col, v in sol.items():
            out.add_term(src_keys[col], v)
    return out if not out.is_zero() else None


# -- cohomology ----------------------------------------------------------------


def brs_cohomology(K, n, wmax):
    """dim of H^n(delta) on the filtration by polynomial degree <= wmax.

    The kernel only needs images of filtered sources; the image needs sources
    up to wmax + (the largest degree drop of delta), so that im(delta) cap F_W
    is complete and window boundaries cannot fake classes."""
    pad = _max_poly_raise(K)
    drop = _max_poly_drop(K)
    src = K.ghost_basis(n, wmax)
    tgt = K.ghost_basis(n + 1, wmax + pad)
    tgt_index = {k: i for i, k in enumerate(tgt)}
    M = K.matrix_of(K.apply_total, src, tgt_index)
    kernel = kernel_basis(M)
    below = K.ghost_basis(n - 1, wmax + drop)
    mid_index = {k: i for i, k in enumerate(src)}
    ent = {}
    extra_rows = {}
    nrows = len(src)
    for col, key in enumerate(below):
        img = K.apply_total(GhostElement(K.D, {key: rat(1)}))
        for k2, v in img.terms.items():
            row = mid_index.get(k2)
            if row is None:
                row = extra_rows.setdefault(k2, nrows + len(extra_rows))
            ent[(row, col)] = v
    Mlow = ExactMatrix(nrows + len(extra_rows), len(below), QQ, ent)
    # image inside the filtration: columns whose overflow part vanishes
    overflow = ExactMatrix(
        len(extra_rows), len(below), QQ,
        {(r - nrows, c): v for (r, c), v in Mlow.entries.items() if r >= nrows},
    )
    keep = kernel_basis(overflow)
    img_cols = []
    for col in keep.basis.columns():
        vec = Mlow.apply(col)
        img_cols.append({k: v for k, v in vec.items() if k < nrows})
    B = image_basis(ExactMatrix.from_columns(img_cols, nrows, QQ))
    # B is contained in the kernel (delta^2 = 0); quotient dimension:
    return kernel.dim - B.dim


def _max_poly_raise(K):
    """Largest polynomial-degree increase over all delta components."""
    raise_ = 0
    for delta in K.deltas.values():
        for img_list, is_x in (
            (delta.pi_images, False), (delta.chi_images, False),
            (delta.x_images or [], True),
        ):
            for img in img_list or []:
                if img is None:
                    continue
                for (_, m, _) in img.terms:
                    raise_ = max(raise_, sum(m) - (1 if is_x else 0))
    return max(raise_, K.max_step)


def _max_poly_drop(K):
    """Largest polynomial-degree decrease: only x-images with terms of poly
    degree < 1 (constant vector field components) lower the degree."""
    drop = 0
    for delta in K.deltas.values():
        for img in delta.x_images or []:
            if img is None:
                continue
            for (_, m, _) in img.terms:
                drop = max(drop, 1 - sum(m))
    return drop


# -- Koszul complex -------------------------------------------------------------


def koszul_homology(constraints, D, deg_max):
    """H^(-n) of the Koszul complex of (u_1..u_m) per polynomial weight.

    Homogeneous constraints make the complex weight-graded with
    weight(pi_alpha) = deg u_alpha, so every weight block is finite and
    exact."""
    for u in constraints:
        if not poly_is_homogeneous(u) or not u:
            raise ValueError("constraints must be nonzero homogeneous")
    m = len(constraints)
    du = [poly_deg(u) for u in constraints]

    def weight(pis, mono):
        return sum(du[a] for a in pis) + sum(mono)

    # delta_0 on Lambda(pi) ox Poly
    def d0_elem(pis, mono):
        out = {}
        for k in range(len(pis)):
            rest, sgn = _remove_at(pis, k)
            for mu, v in constraints[pis[k]].items():
                key = (rest, tuple(x + y for x, y in zip(mono, mu)))
                accumulate(out, key, rat(sgn) * v)
        return out

    dims = {}
    for n in range(m + 1):
        for w in range(deg_max + 1):
            src = [
                (pis, mono)
                for pis in itertools.combinations(range(m), n)
                for totw in [w]
                for mono in monomials(D, w - sum(du[a] for a in pis))
                if w - sum(du[a] for a in pis) >= 0
            ]
            if not src:
                dims[(-n, w)] = 0
                continue
            tgt = [
                (pis, mono)
                for pis in itertools.combinations(range(m), n - 1)
                for mono in monomials(D, w - sum(du[a] for a in pis))
                if w - sum(du[a] for a in pis) >= 0
            ] if n >= 1 else []
            tgt_index = {k: i for i, k in enumerate(tgt)}
            ent = {}
            for col, (pis, mono) in enumerate(src):
                for k2, v in d0_elem(pis, mono).items():
                    ent[(tgt_index[k2], col)] = v
            M = ExactMatrix(len(tgt), len(src), QQ, ent)
            Z = kernel_basis(M)
            src_below = [
                (pis, mono)
                for pis in itertools.combinations(range(m), n + 1)
                for mono in monomials(D, w - sum(du[a] for a in pis))
                if w - sum(du[a] for a in pis) >= 0
            ] if n + 1 <= m else []
            src_index = {k: i for i, k in enumerate(src)}
            ent = {}
            for col, (pis, mono) in enumerate(src_below):
                for k2, v in d0_elem(pis, mono).items():
                    ent[(src_index[k2], col)] = v
            Mlow = ExactMatrix(len(src), len(src_below), QQ, ent)
            B = image_basis(Mlow)
            dims[(-n, w)] = Z.dim - B.dim
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
        du = [poly_deg(u) for u in system.constraints]
        # per-degree quotient Poly_w / (u)_w with deterministic representatives
        self.quotients = {}
        for w in range(deg_max + 1):
            monos = monomials(self.D, w)
            mindex = {m: i for i, m in enumerate(monos)}
            cols = []
            for a, u in enumerate(system.constraints):
                wl = w - du[a]
                if wl < 0:
                    continue
                for mono in monomials(self.D, wl):
                    col = {}
                    for mu, v in u.items():
                        col[mindex[tuple(x + y for x, y in zip(mono, mu))]] = v
                    cols.append(col)
            ideal = image_basis(
                ExactMatrix.from_columns(cols, len(monos), QQ)
            )
            full = Subspace.full(len(monos), QQ)
            self.quotients[w] = (
                monos, mindex, QuotientSpace(full, ideal)
            )

    def reduce_poly(self, poly):
        """Class of a polynomial: {(w, class index) -> value}."""
        out = {}
        by_w = {}
        for m, v in poly.items():
            by_w.setdefault(sum(m), {})[m] = v
        for w, part in by_w.items():
            if w > self.deg_max:
                raise ValueError("polynomial degree exceeds the stored budget")
            monos, mindex, q = self.quotients[w]
            vec = {mindex[m]: v for m, v in part.items()}
            for i, v in q.coordinates(vec).items():
                out[(w, i)] = v
        return out

    def rep_poly(self, w, i):
        monos, mindex, q = self.quotients[w]
        pos = q.complement_positions[i]
        return {monos[pos]: rat(1)}

    def basis(self, s, wmax):
        """(w, class index, chi subset) of ghost degree s, poly degree <= wmax."""
        out = []
        for w in range(min(wmax, self.deg_max) + 1):
            qdim = self.quotients[w][2].dim
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

    def cohomology_dim(self, s, wmax):
        """dim H^s of longitudinal forms with poly degree <= wmax (the
        differential never raises poly degree beyond the budget thanks to
        homogeneous data; overflow raises KeyError)."""
        shifts = [xi.weight_shift() or 0 for xi in self.system.fields]
        pad = max([0] + [sh for sh in shifts]) + max(
            (poly_deg(c) for c in self.system.structure.values() if c),
            default=0,
        )
        drop = max([0] + [-sh for sh in shifts])
        src = self.basis(s, wmax)
        tgt = self.basis(s + 1, min(wmax + pad, self.deg_max))
        tgt_index = {k: i for i, k in enumerate(tgt)}
        ent = {}
        for col, key in enumerate(src):
            for k2, v in self.differential(key).items():
                ent[(tgt_index[k2], col)] = v
        M = ExactMatrix(len(tgt), len(src), QQ, ent)
        Z = kernel_basis(M)
        below = self.basis(s - 1, wmax + drop) if s >= 1 else []
        src_index = {k: i for i, k in enumerate(src)}
        ent = {}
        extra = {}
        for col, key in enumerate(below):
            for k2, v in self.differential(key).items():
                row = src_index.get(k2)
                if row is None:
                    row = extra.setdefault(k2, len(src) + len(extra))
                ent[(row, col)] = v
        Mlow = ExactMatrix(len(src) + len(extra), len(below), QQ, ent)
        overflow = ExactMatrix(
            len(extra), len(below), QQ,
            {(r - len(src), c): v
             for (r, c), v in Mlow.entries.items() if r >= len(src)},
        )
        keep = kernel_basis(overflow)
        img_cols = []
        for col in keep.basis.columns():
            vec = Mlow.apply(col)
            img_cols.append({k: v for k, v in vec.items() if k < len(src)})
        B = image_basis(ExactMatrix.from_columns(img_cols, len(src), QQ))
        return Z.dim - B.dim


def theorem4_verify(system, deg_max, ghost_range=None, wmax=None):
    """dim H^n(delta) (poly-filtered) equals the longitudinal cohomology
    dimension, per ghost degree n and cumulative polynomial degree."""
    K = GhostComplex(system)
    delta_tower(K, deg_max=deg_max)
    if wmax is None:
        wmax = max(deg_max - 2 * _max_poly_raise(K), 1)
    L = LongitudinalComplex(system, deg_max + 2 * _max_poly_raise(K))
    if ghost_range is None:
        ghost_range = range(0, system.m_prime + 1)
    details = {}
    ok = True
    for n in ghost_range:
        lhs = brs_cohomology(K, n, wmax)
        rhs = L.cohomology_dim(n, wmax)
        details[f"H^{n}(<= {wmax})"] = (lhs, rhs)
        if lhs != rhs:
            ok = False
    return {"ok": ok, "details": details, "tower_orders": sorted(K.deltas)}


# -- derivation-based forms (free foliations of a polynomial algebra) -----------


def derivation_forms_cohomology(D, fields, s_range, deg_max):
    """Longitudinal-forms complex for a bracket-closed family of derivations
    acting on Poly(D) (no constraints): returns dims of H^s filtered by
    polynomial degree <= deg_max."""
    structure = {}
    for b, xb in enumerate(fields):
        for c, xc in enumerate(fields):
            br = xb.bracket(xc)
            if all(not cf for cf in br.coeffs):
                continue
            # solve br = sum_a C^a xi_a with constant C when possible
            solved = False
            for a, xa in enumerate(fields):
                ratio = None
                okratio = True
                for i in range(D):
                    if bool(br.coeffs[i]) != bool(xa.coeffs[i]):
                        okratio = False
                        break
                    if br.coeffs[i]:
                        for mm, vv in br.coeffs[i].items():
                            if mm not in xa.coeffs[i]:
                                okratio = False
                                break
                            r = vv / xa.coeffs[i][mm]
                            if ratio is None:
                                ratio = r
                            elif ratio != r:
                                okratio = False
                                break
                if okratio and ratio is not None:
                    structure[(a, b, c)] = poly_const(D, ratio)
                    solved = True
                    break
            if not solved:
                raise ValueError("family is not closed with constant structure")
    system = PolyConstraintSystem(D, [], fields, structure, {})
    L = LongitudinalComplex(system, deg_max)
    return {s: L.cohomology_dim(s, deg_max - 1) for s in s_range}


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
