"""Exact scalar arithmetic over the rationals and their cyclotomic extensions.

Scalars are plain values.  In the rational field a scalar is a rational number
(``gmpy2.mpq`` when gmpy2 is installed, else ``fractions.Fraction``).  In
Q(zeta_M) of degree n = phi(M) a scalar is one tuple of n + 1 Python ints
``(c_0, ..., c_(n-1), d)``: the residue (c_0 + c_1 x + ... + c_(n-1) x^(n-1)) / d
mod Phi_M, with d >= 1 and gcd(c_0, ..., c_(n-1), d) = 1.  That form is
canonical, so ``==`` and ``hash`` compare elements.  ``Field.from_coeffs`` and
``Field.coeffs`` convert between it and n rational coefficients.  All
operations go through a :class:`Field`, which owns the reduction data; nothing
is ever rounded.

``Field.split`` writes a list of scalars as integer numerators over one common
denominator D, and ``Field.join`` turns one numerator and D back into a
canonical scalar.  Over Q a numerator is an int; over Q(zeta_M) it is a residue
with d = 1.  Either way ``add``, ``mul`` and ``is_zero`` apply to numerators as
they are, with no gcd, so the linear algebra reads and writes many entries
with integer arithmetic and builds a scalar only once per result.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

try:
    from gmpy2 import mpq as _mpq

    def rat(a, b=1):
        return _mpq(a, b)

    RAT_TYPES = (type(_mpq(0)), int)
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _mpq

    def rat(a, b=1):
        return _mpq(a, b)

    RAT_TYPES = (_mpq, int)

R_ZERO = rat(0)
R_ONE = rat(1)


def _parse_rat(s):
    """A rational from "n" or "n/d"; a zero denominator is a ValueError."""
    if "/" not in s:
        return rat(int(s))
    n, d = s.split("/")
    if int(d) == 0:
        raise ValueError(f"zero denominator in scalar {s!r}")
    return rat(int(n), int(d))


def _canonical(c):
    """The cyclotomic scalar with parts ``c`` (coefficients, then d >= 1),
    divided by the gcd of all parts."""
    g = math.gcd(*c)
    if g == 1:
        return tuple(c)
    return tuple([x // g for x in c])


def _combine(a, b, op):
    """a + b or a - b of cyclotomic scalars, for ``op`` ``operator.add`` or
    ``operator.sub``: coefficients over a shared denominator combine
    directly, others are cross-multiplied."""
    d = a[-1]
    if d == b[-1]:
        c = list(map(op, a, b))
        c[-1] = d
        if d == 1:
            return tuple(c)
    else:
        e = b[-1]
        c = [op(x * e, y * d) for x, y in zip(a, b)]
        c[-1] = d * e
    return _canonical(c)


def _poly_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Quotient and remainder of rational coefficient lists (ascending)."""
    a = list(a)
    q = [R_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / rat(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] * inv_lead
        if f:
            q[i] = f
            for j, bj in enumerate(b):
                a[i + j] -= f * bj
    return q, _poly_trim(a)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M):
    """Coefficients (ascending, integer) of Phi_M, by dividing x^M - 1 by all
    Phi_d with d a proper divisor of M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    num = [R_ZERO] * (M + 1)
    num[0], num[M] = rat(-1), rat(1)
    for d in range(1, M):
        if M % d == 0:
            num, r = _poly_divmod(num, [rat(c) for c in cyclotomic_polynomial(d)])
            if r:
                raise AssertionError(f"dividing x^{M} - 1 by Phi_{d} left {r}")
    coeffs = [int(c) for c in num]
    if any(rat(c) != x for c, x in zip(coeffs, num)):
        raise AssertionError(f"Phi_{M} has non-integer coefficients {num}")
    return tuple(coeffs)


def euler_phi(M):
    return sum(1 for k in range(1, M + 1) if math.gcd(k, M) == 1)


class Field:
    """Field descriptor plus exact scalar operations.

    kind is "rationals" or "cyclotomic".  A cyclotomic scalar is the tuple
    ``(c_0, ..., c_(n-1), d)`` of ``degree + 1`` ints standing for
    (sum c_i zeta^i) / d, with d >= 1 and the gcd of all parts 1; build one
    from rationals with :meth:`from_coeffs` and read it with :meth:`coeffs`.
    """

    def __init__(self, kind, M=None):
        self.kind = kind
        self.M = M
        if kind == "rationals":
            self.degree = 1
            self.minimal_polynomial = None
            self.zero = R_ZERO
            self.one = R_ONE
        elif kind == "cyclotomic":
            phi = cyclotomic_polynomial(M)
            self.minimal_polynomial = phi
            self.degree = len(phi) - 1
            if self.degree != euler_phi(M):
                raise AssertionError(
                    f"deg Phi_{M} = {self.degree} but phi({M}) = {euler_phi(M)}"
                )
            n = self.degree
            # reduction[k] = integer coefficients of x^(n+k) mod Phi_M, for
            # every power up to x^(2n-2) (products) and x^(M-1) (inverses)
            red = []
            cur = [-c for c in phi[:-1]]  # x^n = -(lower part), Phi monic
            red.append(tuple(cur))
            for _ in range(1, max(n - 1, M - n)):
                shifted = [0] + cur[: n - 1]
                top = cur[n - 1]
                cur = [shifted[i] + top * red[0][i] for i in range(n)]
                red.append(tuple(cur))
            self.reduction = tuple(red)
            self.zero = (0,) * n + (1,)
            self.one = (1,) + (0,) * (n - 1) + (1,)
        else:
            raise ValueError(f"unknown field kind {kind!r}")

    # -- constructors -------------------------------------------------

    def from_rat(self, a, b=1):
        v = rat(a, b)
        if self.kind == "rationals":
            return v
        return (int(v.numerator),) + (0,) * (self.degree - 1) + (int(v.denominator),)

    def from_coeffs(self, coeffs):
        """The scalar with the given ``degree`` rational coefficients (for
        Q(zeta_M): those of 1, zeta, ..., zeta^(degree-1))."""
        coeffs = [rat(x) for x in coeffs]
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(coeffs)}")
        if self.kind == "rationals":
            return coeffs[0]
        d = math.lcm(*(int(x.denominator) for x in coeffs))
        # canonical already: a prime dividing d divides some denominator to
        # its full power in d, so it does not divide that coefficient
        return tuple(int(x.numerator) * (d // int(x.denominator)) for x in coeffs) + (d,)

    def coeffs(self, a):
        """The ``degree`` rational coefficients of ``a``."""
        if self.kind == "rationals":
            return (a,)
        d = a[-1]
        return tuple(rat(c, d) for c in a[:-1])

    def zeta(self):
        """The residue class of x, a primitive M-th root of unity."""
        if self.kind != "cyclotomic":
            raise ValueError("zeta only exists in a cyclotomic field")
        if self.degree == 1:
            # M in {1, 2}: x reduces to a rational
            return (-self.minimal_polynomial[0], 1)
        return (0, 1) + (0,) * (self.degree - 2) + (1,)

    # -- numerators over a common denominator ----------------------------

    def split(self, values):
        """``(numerators, D)`` for a sequence of scalars: D is one int >= 1
        (the lcm of the denominators) and ``values[i]`` equals
        ``join(numerators[i], D)``."""
        if self.kind == "rationals":
            D = math.lcm(*[v.denominator for v in values])
            if D == 1:
                return [v.numerator for v in values], 1
            return [v.numerator * (D // v.denominator) for v in values], D
        D = math.lcm(*[v[-1] for v in values])
        if D == 1:
            return list(values), 1
        out = []
        for v in values:
            k = D // v[-1]
            out.append(tuple([c * k for c in v[:-1]]) + (1,))
        return out, D

    def join(self, n, D):
        """The canonical scalar n / D, for a numerator n and an int D >= 1."""
        if self.kind == "rationals":
            return rat(n, D)
        return _canonical(n[:-1] + (D,))

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        if self.kind == "rationals":
            return a + b
        return _combine(a, b, operator.add)

    def sub(self, a, b):
        if self.kind == "rationals":
            return a - b
        return _combine(a, b, operator.sub)

    def neg(self, a):
        if self.kind == "rationals":
            return -a
        c = [-x for x in a]
        c[-1] = a[-1]
        return tuple(c)

    def mul(self, a, b):
        if self.kind == "rationals":
            return a * b
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i in range(n):
            x = a[i]
            if x:
                for j in range(n):
                    y = b[j]
                    if y:
                        prod[i + j] += x * y
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                for i, r in enumerate(self.reduction[k - n]):
                    if r:
                        prod[i] += c * r
        out = prod[:n]
        d = a[n] * b[n]
        out.append(d)
        if d == 1:
            return tuple(out)
        return _canonical(out)

    def is_zero(self, a):
        if self.kind == "rationals":
            return not a
        return a == self.zero

    def eq(self, a, b):
        return a == b

    def inv(self, a):
        if self.kind == "rationals":
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        n = self.degree
        support = [i for i in range(n) if a[i]]
        if len(support) == 1:
            # a = (c/d) zeta^k, so 1/a = (d/c) zeta^(M-k), read off the
            # reduction table; most elimination pivots are such monomials
            k = support[0]
            c, d = a[k], a[n]
            if c < 0:
                c, d = -c, -d
            j = (self.M - k) % self.M
            if j < n:
                res = [0] * n
                res[j] = d
            else:
                res = [x * d for x in self.reduction[j - n]]
            res = _canonical(res + [c])
        else:
            res = self._inv_by_gcd(a)
        if self.mul(res, a) != self.one:
            raise AssertionError(f"inverse of {self.to_str(a)} fails its check")
        return res

    def _inv_by_gcd(self, a):
        """1/a from the extended gcd of a (as a polynomial) and Phi_M over Q[x]."""
        phi = [rat(c) for c in self.minimal_polynomial]
        r0, r1 = phi, _poly_trim(list(self.coeffs(a)))
        s0, s1 = [], [R_ONE]
        while True:
            q, r = _poly_divmod(r0, r1)
            if not r:
                break
            s = _poly_trim(
                [
                    (s0[i] if i < len(s0) else R_ZERO)
                    - sum(
                        q[j] * s1[i - j]
                        for j in range(max(0, i - len(s1) + 1), min(len(q), i + 1))
                    )
                    for i in range(max(len(s0), len(q) + len(s1) - 1))
                ]
            )
            r0, r1, s0, s1 = r1, r, s1, s
        # r1 is the gcd: a nonzero constant since Phi_M is irreducible
        if len(r1) != 1:
            raise AssertionError(f"gcd of {self.to_str(a)} and Phi_{self.M} is not constant")
        c = 1 / r1[0]
        out = [x * c for x in s1] + [R_ZERO] * (self.degree - len(s1))
        return self.from_coeffs(out[: self.degree])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc, base = self.one, a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def conj(self, a):
        """Complex conjugation: zeta -> zeta^(M-1)."""
        if self.kind == "rationals":
            return a
        z_conj = self.pow(self.zeta(), self.M - 1)
        out = self.zero
        for i in range(self.degree - 1, -1, -1):
            out = self.add(self.mul(out, z_conj), self.from_rat(a[i], a[-1]))
        return out

    # -- serialization ---------------------------------------------------

    def to_str(self, a):
        if self.kind == "rationals":
            return str(a)
        return "[%s] mod Phi(%d)" % (", ".join(str(c) for c in self.coeffs(a)), self.M)

    def parse(self, s):
        s = s.strip()
        if self.kind == "rationals":
            return _parse_rat(s)
        body, _, tail = s.partition(" mod ")
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad cyclotomic scalar {s!r}")
        if tail != "Phi(%d)" % self.M:
            raise ValueError(f"scalar {s!r} does not belong to Phi({self.M})")
        items = [t.strip() for t in body[1:-1].split(",")] if body != "[]" else []
        if len(items) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients in {s!r}")
        return self.from_coeffs(_parse_rat(t) for t in items)

    def to_json(self):
        if self.kind == "rationals":
            return {"kind": "rationals"}
        return {
            "kind": "cyclotomic",
            "M": self.M,
            "minimal_polynomial": list(self.minimal_polynomial),
        }

    @staticmethod
    def from_json(obj):
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "rationals":
            return QQ
        if kind != "cyclotomic":
            raise ValueError(
                "a field must be a JSON object with kind \"rationals\" or "
                f"\"cyclotomic\", got {obj!r}"
            )
        M = obj.get("M")
        if not isinstance(M, int) or isinstance(M, bool) or M < 1:
            raise ValueError(f"cyclotomic field M must be a positive int, got {M!r}")
        f = make_cyclotomic(M)
        if "minimal_polynomial" in obj:
            mp = obj["minimal_polynomial"]
            if not isinstance(mp, list) or tuple(mp) != f.minimal_polynomial:
                raise ValueError("minimal polynomial mismatch for Phi(%d)" % M)
        return f

    def random_scalar(self, rng, span=5):
        if self.kind == "rationals":
            return rat(rng.randint(-span, span))
        return tuple(rng.randint(-span, span) for _ in range(self.degree)) + (1,)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.M == other.M
        )

    def __hash__(self):
        return hash((self.kind, self.M))

    def __repr__(self):
        if self.kind == "rationals":
            return "Field(Q)"
        return f"Field(Q(zeta_{self.M}))"


QQ = Field("rationals")


@lru_cache(maxsize=None)
def make_cyclotomic(M):
    return Field("cyclotomic", M)


# -- q-combinatorics -------------------------------------------------------


def q_int(n, q, field):
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc, p = field.zero, field.one
    for _ in range(n):
        acc = field.add(acc, p)
        p = field.mul(p, q)
    return acc


def q_factorial(n, q, field):
    acc = field.one
    for k in range(1, n + 1):
        acc = field.mul(acc, q_int(k, q, field))
    return acc


def q_binomial(n, m, q, field):
    """Gaussian binomial via the inductive recursion
    [n m] + q^(m+1) [n m+1] = [n+1 m+1], base [n 0] = [n n] = 1."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    row = [field.one]  # row for n = 0
    for k in range(n):
        new = [field.one]
        for j in range(1, k + 1):
            new.append(
                field.add(row[j - 1], field.mul(field.pow(q, j), row[j]))
            )
        new.append(field.one)
        row = new
    return row[m]


def check_assumptions(q, N, field):
    """Classify (q, N): "A1" iff [N]_q = 0 with [n]_q invertible below N,
    "A0" iff only [N]_q = 0, else "none"."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if not field.is_zero(q_int(N, q, field)):
        return "none"
    for n in range(1, N):
        if field.is_zero(q_int(n, q, field)):
            return "A0"
    return "A1"


@dataclass(frozen=True)
class QContext:
    """A field together with a deformation parameter and nilpotency order."""

    field: Field
    q: object
    N: int
    assumption_level: str

    @staticmethod
    def build(field, q, N):
        return QContext(field, q, N, check_assumptions(q, N, field))

    def require(self, level):
        order = {"none": 0, "A0": 1, "A1": 2}
        if order[self.assumption_level] < order[level]:
            raise ValueError(
                f"(q, N={self.N}) satisfies {self.assumption_level!r}, "
                f"but {level!r} is required"
            )


def primitive_qcontext(N, M=None):
    """Standard context: q = zeta_N in Q(zeta_N) (or zeta_M with M = N by
    default), which satisfies (A1)."""
    M = M or N
    f = make_cyclotomic(M)
    ctx = QContext.build(f, f.pow(f.zeta(), M // N), N)
    ctx.require("A1")
    return ctx
