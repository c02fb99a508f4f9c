"""Exact scalar arithmetic over the rationals and their cyclotomic extensions.

Scalars are plain values: a rational number for the rational field, a tuple of
rationals (the residue's coefficients, reduced mod the cyclotomic polynomial)
for an extension.  All operations go through a :class:`Field`, which owns the
reduction data; nothing is ever rounded.
"""

from __future__ import annotations

import math
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
            assert not r, "cyclotomic division must be exact"
    coeffs = [int(c) for c in num]
    assert all(rat(c) == x for c, x in zip(coeffs, num))
    return tuple(coeffs)


def euler_phi(M):
    return sum(1 for k in range(1, M + 1) if math.gcd(k, M) == 1)


class Field:
    """Field descriptor plus exact scalar operations.

    kind is "rationals" or "cyclotomic"; for the latter, scalars are tuples of
    ``degree`` rationals giving the residue mod Phi_M.
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
            assert self.degree == euler_phi(M)
            n = self.degree
            # reduction[k] = coefficients of x^(n+k) mod Phi_M
            red = []
            cur = [-rat(c) for c in phi[:-1]]  # x^n = -(lower part), Phi monic
            red.append(tuple(cur))
            for _ in range(1, n - 1 if n > 1 else 0):
                shifted = [R_ZERO] + cur[: n - 1]
                top = cur[n - 1]
                cur = [shifted[i] + top * red[0][i] for i in range(n)]
                red.append(tuple(cur))
            self.reduction = tuple(red)
            self.zero = tuple([R_ZERO] * n)
            self.one = tuple([R_ONE] + [R_ZERO] * (n - 1))
        else:
            raise ValueError(f"unknown field kind {kind!r}")

    # -- constructors -------------------------------------------------

    def from_rat(self, a, b=1):
        v = rat(a, b)
        if self.kind == "rationals":
            return v
        return tuple([v] + [R_ZERO] * (self.degree - 1))

    def zeta(self):
        """The residue class of x, a primitive M-th root of unity."""
        if self.kind != "cyclotomic":
            raise ValueError("zeta only exists in a cyclotomic field")
        if self.degree == 1:
            # M in {1, 2}: x reduces to a rational
            return (-rat(self.minimal_polynomial[0]),)
        return tuple(
            [R_ZERO, R_ONE] + [R_ZERO] * (self.degree - 2)
        )

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        if self.kind == "rationals":
            return a + b
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        if self.kind == "rationals":
            return a - b
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        if self.kind == "rationals":
            return -a
        return tuple(-x for x in a)

    def mul(self, a, b):
        if self.kind == "rationals":
            return a * b
        n = self.degree
        if n == 1:
            return (a[0] * b[0],)
        prod = [R_ZERO] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        out = prod[:n]
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                row = self.reduction[k - n]
                for i in range(n):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def is_zero(self, a):
        if self.kind == "rationals":
            return not a
        return not any(a)

    def eq(self, a, b):
        return a == b

    def inv(self, a):
        if self.kind == "rationals":
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return 1 / a
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        # extended gcd of a (as a polynomial) with Phi_M over Q[x]
        phi = [rat(c) for c in self.minimal_polynomial]
        r0, r1 = phi, _poly_trim(list(a))
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
        assert len(r1) == 1
        c = 1 / r1[0]
        out = [x * c for x in s1] + [R_ZERO] * (self.degree - len(s1))
        res = tuple(out[: self.degree])
        assert self.eq(self.mul(res, a), self.one)
        return res

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
            out = self.add(self.mul(out, z_conj), self.from_rat(a[i]))
        return out

    # -- serialization ---------------------------------------------------

    def to_str(self, a):
        if self.kind == "rationals":
            return str(a)
        return "[%s] mod Phi(%d)" % (", ".join(str(c) for c in a), self.M)

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
        return tuple(_parse_rat(t) for t in items)

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
        return tuple(rat(rng.randint(-span, span)) for _ in range(self.degree))

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
