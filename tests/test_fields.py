import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex.fields import (
    QQ,
    QContext,
    check_assumptions,
    cyclotomic_polynomial,
    euler_phi,
    make_cyclotomic,
    q_binomial,
    q_factorial,
    q_int,
    rat,
)
from ncomplex.linalg import ExactMatrix, kernel_basis


def naive_cyclotomic(M):
    """Oracle: divide x^M - 1 by the product of lower Phi_d using Fractions."""
    def polydiv(a, b):
        a = list(a)
        q = [Fraction(0)] * (len(a) - len(b) + 1)
        for i in range(len(a) - len(b), -1, -1):
            f = a[i + len(b) - 1] / b[-1]
            q[i] = f
            for j, bj in enumerate(b):
                a[i + j] -= f * bj
        assert all(c == 0 for c in a[: len(b) - 1])
        return q

    phi = {}
    for m in range(1, M + 1):
        num = [Fraction(0)] * (m + 1)
        num[0], num[m] = Fraction(-1), Fraction(1)
        for d in range(1, m):
            if m % d == 0:
                num = polydiv(num, phi[d])
        phi[m] = num
    return tuple(int(c) for c in phi[M])


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    # derived by dividing x^3-1 by Phi_1
    assert cyclotomic_polynomial(3) == naive_cyclotomic(3) == (1, 1, 1)
    # derived by dividing x^4-1 by Phi_1 Phi_2
    assert cyclotomic_polynomial(4) == naive_cyclotomic(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("M", range(1, 31))
def test_cyclotomic_structure(M):
    phi = cyclotomic_polynomial(M)
    assert phi == naive_cyclotomic(M)
    assert phi[-1] == 1  # monic
    assert len(phi) - 1 == euler_phi(M)
    # Phi_M divides x^M - 1 exactly: check by residue arithmetic
    f = make_cyclotomic(M)
    z = f.zeta()
    assert f.eq(f.pow(z, M), f.one)


def test_scalar_arithmetic_cyclotomic():
    f = make_cyclotomic(5)
    z = f.zeta()
    # 1 + z + z^2 + z^3 + z^4 = 0
    s = f.zero
    for k in range(5):
        s = f.add(s, f.pow(z, k))
    assert f.is_zero(s)
    a = f.add(f.mul(z, z), f.from_rat(3, 7))
    assert f.eq(f.mul(a, f.inv(a)), f.one)


def test_conjugation():
    f = make_cyclotomic(4)
    i = f.zeta()
    assert f.eq(f.conj(i), f.neg(i))
    a = f.add(f.from_rat(2), i)
    # a * conj(a) = |a|^2 = 5 is rational
    sq = f.mul(a, f.conj(a))
    assert f.eq(sq, f.from_rat(5))


def test_scalar_strings_roundtrip():
    assert QQ.to_str(rat(-3, 4)) == "-3/4"
    assert QQ.parse("-3/4") == rat(-3, 4)
    f = make_cyclotomic(12)
    a = f.from_coeffs((rat(1, 2), rat(-1, 3), rat(0), rat(7)))
    s = f.to_str(a)
    assert s == "[1/2, -1/3, 0, 7] mod Phi(12)"
    assert f.parse(s) == a


def test_q_int_values():
    # [0]_q = 0 for any q
    assert QQ.is_zero(q_int(0, rat(5), QQ))
    # q = 1 gives ordinary integers
    assert q_int(3, rat(1), QQ) == rat(3)
    # 1 + z3 + z3^2 = 0
    f = make_cyclotomic(3)
    assert f.is_zero(q_int(3, f.zeta(), f))


def test_q_int_inverse_identity():
    # [n]_{q^-1} = q^(-n+1) [n]_q
    f = make_cyclotomic(7)
    q = f.add(f.zeta(), f.from_rat(2))
    qi = f.inv(q)
    for n in range(8):
        lhs = q_int(n, qi, f)
        rhs = f.mul(f.pow(q, -(n - 1)) if n >= 1 else f.pow(qi, n - 1), q_int(n, q, f))
        assert f.eq(lhs, rhs)


def test_q_binomial_classical():
    for n in range(13):
        for m in range(n + 1):
            assert q_binomial(n, m, rat(1), QQ) == rat(math.comb(n, m))
    with pytest.raises(ValueError):
        q_binomial(3, 4, rat(1), QQ)


def test_q_binomial_base_cases():
    f = make_cyclotomic(5)
    q = f.zeta()
    for n in range(7):
        assert f.eq(q_binomial(n, 0, q, f), f.one)
        assert f.eq(q_binomial(n, n, q, f), f.one)


@pytest.mark.parametrize("N", range(2, 13))
def test_q_binomial_vanishing_under_a1(N):
    f = make_cyclotomic(N)
    q = f.zeta()
    assert check_assumptions(q, N, f) == "A1"
    for m in range(1, N):
        assert f.is_zero(q_binomial(N, m, q, f))


def test_check_assumptions_levels():
    f3 = make_cyclotomic(3)
    assert check_assumptions(f3.zeta(), 3, f3) == "A1"
    assert check_assumptions(QQ.one, 3, QQ) == "none"
    # q = -1 = zeta_6^3, N = 4: [4]_{-1} = 0 but [2]_{-1} = 0
    f6 = make_cyclotomic(6)
    q = f6.pow(f6.zeta(), 3)
    assert f6.eq(q, f6.neg(f6.one))
    assert check_assumptions(q, 4, f6) == "A0"


def test_qcontext():
    f = make_cyclotomic(3)
    ctx = QContext.build(f, f.zeta(), 3)
    assert ctx.assumption_level == "A1"
    ctx.require("A0")
    bad = QContext.build(QQ, QQ.one, 3)
    with pytest.raises(ValueError):
        bad.require("A1")


scalars_q = st.builds(
    rat,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


@given(a=scalars_q, b=scalars_q, c=scalars_q)
@settings(max_examples=60, deadline=None)
def test_field_axioms_rationals(a, b, c):
    f = QQ
    assert f.eq(f.add(f.add(a, b), c), f.add(a, f.add(b, c)))
    assert f.eq(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)))
    assert f.eq(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)))
    if not f.is_zero(a):
        assert f.eq(f.mul(a, f.inv(a)), f.one)


small_ints = st.integers(min_value=-6, max_value=6)


@given(coeffs=st.tuples(small_ints, small_ints, small_ints, small_ints, small_ints, small_ints))
@settings(max_examples=60, deadline=None)
def test_field_axioms_cyclotomic(coeffs):
    f = make_cyclotomic(9)  # degree 6
    a = f.from_coeffs(coeffs[: f.degree])
    b = f.add(f.pow(f.zeta(), 2), f.from_rat(1, 2))
    assert f.eq(f.mul(a, b), f.mul(b, a))
    assert f.eq(f.mul(f.add(a, b), b), f.add(f.mul(a, b), f.mul(b, b)))
    if not f.is_zero(a):
        assert f.eq(f.mul(a, f.inv(a)), f.one)


def test_field_json_roundtrip():
    f = make_cyclotomic(8)
    from ncomplex.fields import Field

    assert Field.from_json(f.to_json()) == f
    assert Field.from_json(QQ.to_json()) == QQ


# -- integer form of Q(zeta_M) against dense Fraction polynomials ------------

ORACLE_M = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)
small_fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)),
)


def _reduce(p, phi):
    """Dense remainder of a Fraction coefficient list modulo monic phi."""
    p = list(p)
    n = len(phi) - 1
    for k in range(len(p) - 1, n - 1, -1):
        c = p[k]
        if c:
            for i, e in enumerate(phi):
                p[k - n + i] -= c * e
    return tuple((p + [Fraction(0)] * n)[:n])


def _dense_mul(x, y, phi):
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            prod[i + j] += u * v
    return _reduce(prod, phi)


def _assert_canonical(f, x):
    assert isinstance(x, tuple) and len(x) == f.degree + 1
    assert all(type(c) is int for c in x)
    assert x[-1] >= 1 and math.gcd(*x) == 1


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_integer_arithmetic_matches_dense_oracle(data):
    M = data.draw(st.sampled_from(ORACLE_M), label="M")
    f = make_cyclotomic(M)
    phi = naive_cyclotomic(M)
    n = f.degree
    ca, cb = (
        tuple(data.draw(st.lists(small_fractions, min_size=n, max_size=n), label=x))
        for x in ("a", "b")
    )
    a, b = f.from_coeffs(ca), f.from_coeffs(cb)
    assert f.coeffs(a) == ca and f.coeffs(b) == cb

    results = {
        "add": (f.add(a, b), tuple(x + y for x, y in zip(ca, cb))),
        "sub": (f.sub(a, b), tuple(x - y for x, y in zip(ca, cb))),
        "neg": (f.neg(a), tuple(-x for x in ca)),
        "mul": (f.mul(a, b), _dense_mul(ca, cb, phi)),
    }
    # conj sends zeta^i to zeta^(i(M-1))
    conj = [Fraction(0)] * ((n - 1) * (M - 1) + 1)
    for i, x in enumerate(ca):
        conj[i * (M - 1)] += x
    results["conj"] = (f.conj(a), _reduce(conj, phi))
    power = (Fraction(1),) + (Fraction(0),) * (n - 1)
    for e in range(4):
        results[f"pow {e}"] = (f.pow(a, e), power)
        power = _dense_mul(power, ca, phi)
    if any(ca):
        inv = f.inv(a)
        assert _dense_mul(f.coeffs(inv), ca, phi) == f.coeffs(f.one)
        results["inv"] = (inv, f.coeffs(inv))
        results["pow -2"] = (f.pow(a, -2), _dense_mul(f.coeffs(inv), f.coeffs(inv), phi))
    else:
        with pytest.raises(ZeroDivisionError):
            f.inv(a)
    for name, (got, expected) in results.items():
        _assert_canonical(f, got)
        assert f.coeffs(got) == expected, name

    back = f.sub(f.add(a, b), b)
    assert back == a and hash(back) == hash(a)
    assert f.is_zero(f.sub(a, a)) and f.sub(a, a) == f.zero
    assert f.parse(f.to_str(a)) == a


# Recorded with the earlier form, in which a residue was a tuple of
# Fractions: the integer form must print and eliminate exactly the same.
GOLDEN_STRINGS = [
    (12, "[1/2, -1/3, 0, 0] mod Phi(12)"),
    (12, "[-630/2221, 2205/2221, 686/2221, -2401/2221] mod Phi(12)"),
    (12, "[0, -1/7, 0, 1/7] mod Phi(12)"),
    (5, "[-60/61, -63/61, -54/61, -81/61] mod Phi(5)"),
    (8, "[-5/6, -1, 0, 0] mod Phi(8)"),
]
GOLDEN_KERNELS = {
    3: "23fab634eb16e11840e0fbcbbcc901a0199662496f0b98b4bce395da6571d128",
    5: "18650310e13023d0291defda5967c45ea974e5398ee482f6ae23d194e72057a4",
    8: "76d7f2f21747be36780c92c66f17465c7e6053e225815d59624fb9809f9a521b",
    12: "930b6cd3b0eb0a220dcfd24834d17a32a34e8514864a8c15e7a9b4ef36b75f7d",
}


def _golden_scalar(f, rng):
    acc, z = f.zero, f.zeta()
    for k in range(f.degree):
        if rng.random() < 0.5:
            c = f.from_rat(rng.randint(-9, 9), rng.choice((1, 3, 7, 21)))
            acc = f.add(acc, f.mul(c, f.pow(z, k)))
    return acc


def test_golden_serialization():
    f12, f5, f8 = make_cyclotomic(12), make_cyclotomic(5), make_cyclotomic(8)
    z12 = f12.zeta()
    scalars = [
        f12.add(f12.from_rat(1, 2), f12.mul(f12.from_rat(-1, 3), z12)),
        f12.inv(f12.add(z12, f12.from_rat(2, 7))),
        f12.mul(f12.from_rat(3, 21), f12.pow(z12, 5)),
        f5.inv(f5.add(f5.zeta(), f5.from_rat(1, 3))),
        f8.conj(f8.add(f8.pow(f8.zeta(), 3), f8.from_rat(-5, 6))),
    ]
    for a, (M, s) in zip(scalars, GOLDEN_STRINGS):
        f = make_cyclotomic(M)
        assert f.to_str(a) == s
        assert f.parse(s) == a

    for M, digest in GOLDEN_KERNELS.items():
        f = make_cyclotomic(M)
        rng = random.Random(1000 + M)
        rows = [
            [_golden_scalar(f, rng) if rng.random() < 0.7 else f.zero for _ in range(7)]
            for _ in range(4)
        ]
        K = kernel_basis(ExactMatrix.from_rows(rows, f))
        text = json.dumps(K.basis.to_json(), sort_keys=True)
        assert K.dim == 3
        assert hashlib.sha256(text.encode()).hexdigest() == digest
