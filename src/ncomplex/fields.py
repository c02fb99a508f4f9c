"""Exact scalar arithmetic over the rationals and their cyclotomic extensions.

Scalars are plain values.  In the rational field a scalar is a
``fractions.Fraction``.  In Q(zeta_M) of degree n = phi(M) a scalar is one
tuple of n + 1 Python ints ``(c_0, ..., c_(n-1), d)``: the residue
(c_0 + c_1 x + ... + c_(n-1) x^(n-1)) / d mod Phi_M, with d >= 1 and
gcd(c_0, ..., c_(n-1), d) = 1.  That form is canonical, so ``==`` and ``hash``
compare elements.  ``Field.from_coeffs`` and ``Field.coeffs`` convert between
it and n rational coefficients.  All operations go through a :class:`Field`,
which owns the reduction data; nothing is ever rounded.

The scalar operations ``add``, ``sub``, ``mul``, ``neg`` and ``is_zero`` are
bound once per field, when it is built, as plain instance attributes: over Q
the ``operator`` functions, over Q(zeta_M) straight-line code generated from
the field's reduction table, so no call dispatches on the kind of field.  The
class-level ``Field.add`` and ``Field.mul`` stay as the general reference
forms that the generated code is tested against.  ``Field.accumulate`` is
bound the same way: ``acc[key] += val`` in a sparse dict of scalars, the one
step that builds every sparse sum (over Q the module-level
:func:`accumulate`, over Q(zeta_M) one built from the field's ``add`` and
``zero``).

``Field.split`` writes a list of scalars as integer numerators over one common
denominator D, and ``Field.join`` turns one numerator and D back into a
canonical scalar.  Over Q a numerator is an int; over Q(zeta_M) it is a residue
with d = 1.  Either way ``add``, ``mul`` and ``is_zero`` apply to numerators as
they are, with no gcd, so the linear algebra reads and writes many entries
with integer arithmetic and builds a scalar only once per result.

``Field.galois(a, k)`` is the automorphism zeta -> zeta^k, k prime to M.
``Field.inv`` returns 1/a for a = c / d as d P / N(c): P is the product of
the other conjugates of c and the norm N(c) = c P an integer, with a shortcut
for monomials.  ``Field.conj`` is sigma_(M-1).  Both read the reduction
table, which holds x^j mod Phi_M up to j = M - 1.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce

rat = Fraction  # rat(a, b=1): the rational a / b

R_ZERO = rat(0)
R_ONE = rat(1)


def accumulate(acc, key, val):
    """``acc[key] += val`` in a sparse dict of rationals: a key whose sum is
    zero is dropped, a zero ``val`` at a new key is not stored, and no zero
    scalar is ever built."""
    if key in acc:
        w = acc[key] + val
        if w:
            acc[key] = w
        else:
            del acc[key]
    elif val:
        acc[key] = val


def check_keys(obj, what, required, optional=()):
    """Refuse ``obj`` (ValueError) unless it is a JSON object with every key in
    ``required`` and no key outside ``required`` and ``optional``; the message
    names ``what`` and the keys.  Give ``required`` empty only for a dict."""
    if not (isinstance(obj, dict) and set(required) <= obj.keys()):
        *head, last = required
        raise ValueError(f"{what} must be a JSON object with keys "
                         f"{', '.join(head)} and {last}")
    unknown = sorted(obj.keys() - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))} in {what}")


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


# Q(zeta_M) up to this degree gets a generated ``mul``.  Measured per call
# (Python 3.11, 2-vCPU host), the generated form is 3-6x faster than the
# reference convolution on dense products at every degree up to 128, but it
# forms all n^2 terms where the reference skips zero coefficients: on a
# product of two monomials, most of the products in elimination, it is 0.7x
# the reference's time at degree 8, even at 12, 1.5-2x at 16 and 3.5x at 32.
# The bound also caps the generated source, which grows as the square of the
# degree (compiling takes 2 ms at degree 12, 90 ms at 128, 0.4 s at 256) for
# any M that ``Field.from_json`` accepts.
STRAIGHT_LINE_DEGREE = 12


def _signed_sum(terms):
    """Source of the sum of ``(int weight, expression)`` terms; "0" if empty."""
    src = ""
    for w, e in terms:
        if w:
            src += (" - " if w < 0 else " + ") + (e if abs(w) == 1 else f"{abs(w)}*{e}")
    if not src:
        return "0"
    return src[3:] if src.startswith(" + ") else "-" + src[3:]


def _cyclotomic_ops(n, reduction, zero, mul=True):
    """``{name: function}`` for add, sub, neg, is_zero, accumulate and (if
    ``mul``) mul of Q(zeta_M) of degree n, generated as straight-line code.
    Coefficient k of a product is the convolution term of degree k plus the
    fixed combination, read off ``reduction``, of the terms h_t of degree
    t = n..2n-2."""
    a = ", ".join(f"a{i}" for i in range(n))
    b = ", ".join(f"b{i}" for i in range(n))
    head = f"    {a}, da = a\n    {b}, db = b\n"
    src = []
    for name, op in (("add", "+"), ("sub", "-")):
        same = ", ".join(f"a{i} {op} b{i}" for i in range(n))
        cross = ", ".join(f"a{i}*db {op} b{i}*da" for i in range(n))
        src.append(
            f"def {name}(a, b):\n{head}"
            "    if da == db:\n"
            f"        if da == 1:\n            return ({same}, 1)\n"
            f"        return _canonical(({same}, da))\n"
            f"    return _canonical(({cross}, da*db))\n"
        )
    src.append(
        f"def neg(a):\n    {a}, da = a\n"
        f"    return ({', '.join(f'-a{i}' for i in range(n))}, da)\n"
    )
    src.append("def is_zero(a):\n    return a == zero\n")
    src.append(
        "def accumulate(acc, key, val):\n"
        "    if key in acc:\n"
        "        w = add(acc[key], val)\n"
        "        if w == zero:\n            del acc[key]\n"
        "        else:\n            acc[key] = w\n"
        "    elif val != zero:\n        acc[key] = val\n"
    )
    if mul:
        def conv(t):
            return [(1, f"a{i}*b{t - i}")
                    for i in range(max(0, t - n + 1), min(t, n - 1) + 1)]

        body = "".join(
            f"    h{t} = {_signed_sum(conv(t))}\n" for t in range(n, 2 * n - 1)
        )
        coeffs = ", ".join(
            _signed_sum(conv(k) + [(reduction[t - n][k], f"h{t}")
                                   for t in range(n, 2 * n - 1)])
            for k in range(n)
        )
        src.append(
            f"def mul(a, b):\n{head}{body}"
            f"    d = da*db\n    c = ({coeffs}, d)\n"
            "    if d == 1:\n        return c\n"
            "    return _canonical(c)\n"
        )
    namespace = {"_canonical": _canonical, "zero": zero}
    exec(compile("\n".join(src), f"<Q(zeta) degree {n}>", "exec"), namespace)
    names = ("add", "sub", "neg", "is_zero", "accumulate") + (("mul",) if mul else ())
    return {name: namespace[name] for name in names}


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M):
    """Coefficients (ascending, integer) of Phi_M: x^M - 1 divided, by integer
    long division, by the monic Phi_d for each proper divisor d of M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    num = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            b = cyclotomic_polynomial(d)
            m = len(b) - 1
            q = [0] * (len(num) - m)
            for i in range(len(q) - 1, -1, -1):
                f = q[i] = num[i + m]
                if f:
                    for j, bj in enumerate(b):
                        num[i + j] -= f * bj
            if any(num[:m]):
                raise AssertionError(f"dividing x^{M} - 1 by Phi_{d} left {num[:m]}")
            num = q
    return tuple(num)


def euler_phi(M):
    return sum(1 for k in range(1, M + 1) if math.gcd(k, M) == 1)


class Field:
    """Field descriptor plus exact scalar operations.

    kind is "rationals" or "cyclotomic".  A cyclotomic scalar is the tuple
    ``(c_0, ..., c_(n-1), d)`` of ``degree + 1`` ints standing for
    (sum c_i zeta^i) / d, with d >= 1 and the gcd of all parts 1; build one
    from rationals with :meth:`from_coeffs` and read it with :meth:`coeffs`.

    ``add``, ``sub``, ``mul``, ``neg`` and ``is_zero`` are bound at
    construction as instance attributes: the ``operator`` functions over Q,
    straight-line code generated from ``reduction`` over Q(zeta_M).  The
    class-level :meth:`add` and :meth:`mul` are the general reference forms;
    a field of degree above ``STRAIGHT_LINE_DEGREE`` keeps the class-level
    :meth:`mul`.

    :meth:`galois` is zeta -> zeta^k; :meth:`inv` is the product of the
    other conjugates over the integer norm, with a monomial shortcut, and
    :meth:`conj` is sigma_(M-1); ``reduction`` runs up to x^(M-1) for both.

    ``accumulate(acc, key, val)`` is bound alongside them and adds ``val``
    into the sparse dict ``acc`` at ``key``: a key whose sum is zero is
    dropped, a zero ``val`` at a new key is not stored, and key order is
    kept.
    """

    def __init__(self, kind, M=None):
        self.kind = kind
        self.M = M
        if kind == "rationals":
            self.degree = 1
            self.minimal_polynomial = None
            self.zero = R_ZERO
            self.one = R_ONE
            self.add, self.sub, self.mul = operator.add, operator.sub, operator.mul
            self.neg, self.is_zero = operator.neg, operator.not_
            self.accumulate = accumulate
        elif kind == "cyclotomic":
            phi = cyclotomic_polynomial(M)
            self.minimal_polynomial = phi
            self.degree = len(phi) - 1
            if self.degree != euler_phi(M):
                raise AssertionError(
                    f"deg Phi_{M} = {self.degree} but phi({M}) = {euler_phi(M)}"
                )
            n = self.degree
            # reduction[k] = integer coefficients of x^(n+k) mod Phi_M, up to
            # x^(2n-2) (products) and x^(M-1) (Galois maps, monomial inverses)
            red = []
            cur = [-c for c in phi[:-1]]  # x^n = -(lower part), Phi monic
            red.append(tuple(cur))
            for _ in range(1, max(n - 1, M - n)):
                shifted = [0] + cur[: n - 1]
                top = cur[n - 1]
                cur = [shifted[i] + top * red[0][i] for i in range(n)]
                red.append(tuple(cur))
            self.reduction = tuple(red)
            # the units k != 1 mod M: zeta -> zeta^k are the other automorphisms
            self.galois_units = tuple(k for k in range(2, M) if math.gcd(k, M) == 1)
            self.zero = (0,) * n + (1,)
            self.one = (1,) + (0,) * (n - 1) + (1,)
            ops = _cyclotomic_ops(n, self.reduction, self.zero,
                                  mul=n <= STRAIGHT_LINE_DEGREE)
            self.__dict__.update(ops)
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

    def numerator(self, k):
        """The int ``k`` as a numerator over D = 1."""
        return k if self.kind == "rationals" else self.from_rat(k)

    def join(self, n, D):
        """The canonical scalar n / D, for a numerator n and an int D >= 1."""
        if self.kind == "rationals":
            return rat(n, D)
        return _canonical(n[:-1] + (D,))

    # -- arithmetic ----------------------------------------------------
    # Reference forms; each field shadows them with its bound operations.

    def add(self, a, b):
        if self.kind == "rationals":
            return a + b
        return _combine(a, b, operator.add)

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

    def inv(self, a):
        if self.kind == "rationals":
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return rat(1) / a
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
            # 1/a = d P / N(c) for a = c/d, with P the product of the other
            # conjugates of c and N(c) = c P, an integer
            c = a[:n] + (1,)
            P = reduce(self.mul, [self.galois(c, k) for k in self.galois_units])
            norm = self.mul(P, c)
            N = norm[0]
            if not N or any(norm[1:n]) or norm[n] != 1:
                raise AssertionError(f"norm of {self.to_str(a)} is {self.to_str(norm)}, "
                                     "not a nonzero integer")
            d = a[n] if N > 0 else -a[n]
            res = _canonical([x * d for x in P[:n]] + [abs(N)])
        if self.mul(res, a) != self.one:
            raise AssertionError(f"inverse of {self.to_str(a)} fails its check")
        return res

    def galois(self, a, k):
        """sigma_k(a) = a(zeta^k) for k prime to M: coefficient i moves to
        zeta^(ik mod M).  It is an automorphism of Z[zeta], so it keeps the
        content and d, and a canonical ``a`` gives a canonical result."""
        if self.kind == "rationals":
            return a
        if math.gcd(k, self.M) != 1:
            raise ValueError(f"{k} is not a unit mod {self.M}")
        n, M = self.degree, self.M
        out = [0] * n
        for i in range(n):
            c = a[i]
            if c:
                e = i * k % M
                if e < n:
                    out[e] += c
                else:
                    for j, r in enumerate(self.reduction[e - n]):
                        if r:
                            out[j] += c * r
        out.append(a[n])
        return tuple(out)

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
        """Complex conjugation, sigma_(M-1): zeta -> zeta^(M-1)."""
        if self.kind == "rationals":
            return a
        return self.galois(a, self.M - 1)

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
        if kind not in ("rationals", "cyclotomic"):
            raise ValueError(
                "a field must be a JSON object with kind \"rationals\" or "
                f"\"cyclotomic\", got {obj!r}"
            )
        check_keys(obj, "a field", (), ("kind", "M", "minimal_polynomial")
                   if kind == "cyclotomic" else ("kind",))
        if kind == "rationals":
            return QQ
        M = obj.get("M")
        if not isinstance(M, int) or isinstance(M, bool) or M < 1:
            raise ValueError(f"cyclotomic field M must be a positive int, got {M!r}")
        f = make_cyclotomic(M)
        if "minimal_polynomial" in obj:
            mp = obj["minimal_polynomial"]
            if not isinstance(mp, list) or tuple(mp) != f.minimal_polynomial:
                raise ValueError("minimal polynomial mismatch for Phi(%d)" % M)
        return f

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.M == other.M
        )

    def __hash__(self):
        return hash((self.kind, self.M))

    def __reduce__(self):
        # the generated operations do not pickle: unpickle to the shared field
        if self.kind == "rationals":
            return "QQ"
        return make_cyclotomic, (self.M,)

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
