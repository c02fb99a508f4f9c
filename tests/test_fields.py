import hashlib
import json
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncomplex.fields import (
    QQ,
    STRAIGHT_LINE_DEGREE,
    Field,
    accumulate,
    check_assumptions,
    cyclotomic_polynomial,
    euler_phi,
    make_cyclotomic,
    q_binomial,
    q_int,
    rat,
    _combine,
    _cyclotomic_ops,
)
from ncomplex.linalg import ExactMatrix, kernel_basis
from helpers import random_scalar


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
    assert f.pow(z, M) == f.one


def test_scalar_arithmetic_cyclotomic():
    f = make_cyclotomic(5)
    z = f.zeta()
    # 1 + z + z^2 + z^3 + z^4 = 0
    s = f.zero
    for k in range(5):
        s = f.add(s, f.pow(z, k))
    assert f.is_zero(s)
    a = f.add(f.mul(z, z), f.from_rat(3, 7))
    assert f.mul(a, f.inv(a)) == f.one


def test_conjugation():
    f = make_cyclotomic(4)
    i = f.zeta()
    assert f.conj(i) == f.neg(i)
    a = f.add(f.from_rat(2), i)
    # a * conj(a) = |a|^2 = 5 is rational
    sq = f.mul(a, f.conj(a))
    assert sq == f.from_rat(5)


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
        assert lhs == rhs


def test_rational_inverse_is_exact():
    """Over Q an inverse is a ``Fraction`` for int and ``Fraction`` input
    alike, never a float, and so is every negative power; the spin-1 Gram
    matrix over Q with an int alpha holds only ``Fraction``s."""
    from ncomplex.gauge import spin1_complex

    for a, want in [(2, rat(1, 2)), (-3, rat(-1, 3)), (rat(2, 5), rat(5, 2))]:
        for got in (QQ.inv(a), QQ.pow(a, -1)):
            assert type(got) is Fraction and got == want
    assert type(QQ.pow(2, -3)) is Fraction and QQ.pow(2, -3) == rat(1, 8)
    _, G = spin1_complex((1, 1, 0, 0), 2, QQ)
    assert G.entries and all(type(v) is Fraction for v in G.entries.values())
    assert G.entries[(0, 5)] == rat(-1, 2)


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
        assert q_binomial(n, 0, q, f) == f.one
        assert q_binomial(n, n, q, f) == f.one


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
    assert q == f6.neg(f6.one)
    assert check_assumptions(q, 4, f6) == "A0"


scalars_q = st.builds(
    rat,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


@given(a=scalars_q, b=scalars_q, c=scalars_q)
@settings(max_examples=60, deadline=None)
def test_field_axioms_rationals(a, b, c):
    f = QQ
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one


small_ints = st.integers(min_value=-6, max_value=6)


@given(coeffs=st.tuples(small_ints, small_ints, small_ints, small_ints, small_ints, small_ints))
@settings(max_examples=60, deadline=None)
def test_field_axioms_cyclotomic(coeffs):
    f = make_cyclotomic(9)  # degree 6
    a = f.from_coeffs(coeffs[: f.degree])
    b = f.add(f.pow(f.zeta(), 2), f.from_rat(1, 2))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.add(a, b), b) == f.add(f.mul(a, b), f.mul(b, b))
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one


def test_field_json_roundtrip():
    f = make_cyclotomic(8)
    from ncomplex.fields import Field

    assert Field.from_json(f.to_json()) == f
    assert Field.from_json(QQ.to_json()) == QQ


# -- integer form of Q(zeta_M) against dense Fraction polynomials ------------

# degrees 1, 2, 4, 6, 8 and, above STRAIGHT_LINE_DEGREE (the class-level
# mul), 16
ORACLE_M = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 17)
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


@pytest.mark.parametrize("M", ORACLE_M)
def test_galois_maps_are_the_automorphisms(M):
    """sigma_k sends zeta to zeta^k for every unit k and is additive and
    multiplicative; a k sharing a factor with M is refused."""
    f = make_cyclotomic(M)
    z = f.zeta()
    rng = random.Random(M)
    xs = _sample_scalars(f, rng)
    for k in range(1, M + 1):
        if math.gcd(k, M) != 1:
            with pytest.raises(ValueError):
                f.galois(z, k)
            continue
        assert f.galois(z, k) == f.pow(z, k), k
        for a, b in zip(xs, reversed(xs)):
            s = f.galois(a, k)
            _assert_canonical(f, s)
            assert f.add(s, f.galois(b, k)) == f.galois(f.add(a, b), k), k
            assert f.mul(s, f.galois(b, k)) == f.galois(f.mul(a, b), k), k
    assert f.conj(z) == f.galois(z, M - 1) == f.pow(z, M - 1)
    assert QQ.galois(rat(3, 4), 5) == QQ.conj(rat(3, 4)) == rat(3, 4)


# -- the generated operations against the class-level reference forms --------


def _sample_scalars(f, rng):
    """Canonical scalars of ``f``: zero, one, dense ones over small
    denominators, numerators (d = 1) with wide coefficients, and monomials."""
    n = f.degree
    out = [f.zero, f.one]
    for _ in range(4):
        out.append(f.from_coeffs(
            [rat(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]))
        out.append(tuple(rng.randint(-10**6, 10**6) for _ in range(n)) + (1,))
        mono = [0] * n
        mono[rng.randrange(n)] = rat(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5))
        out.append(f.from_coeffs(mono))
    return out


def _disagreements(f, ops, rng):
    """The (operation, a, b) on which ``ops["mul"]``, ``ops["add"]`` and
    ``ops["sub"]`` differ from ``Field.mul``, ``Field.add`` and
    ``_combine(.., operator.sub)`` over all pairs of sample scalars."""
    xs = _sample_scalars(f, rng)
    bad = []
    for a in xs:
        for b in xs:
            for name, want in (
                ("mul", Field.mul(f, a, b)),
                ("add", Field.add(f, a, b)),
                ("sub", _combine(a, b, operator.sub)),
            ):
                got = ops[name](a, b)
                _assert_canonical(f, got)
                if got != want:
                    bad.append((name, a, b))
    return bad


def test_generated_operations_match_reference_forms():
    rng = random.Random(6)
    for M in range(1, 31):
        f = make_cyclotomic(M)
        bound = vars(f)  # the operations bound at construction
        assert all(callable(bound[name]) for name in ("add", "sub", "neg", "is_zero"))
        assert ("mul" in bound) == (f.degree <= STRAIGHT_LINE_DEGREE), M
        ops = {name: getattr(f, name) for name in ("add", "sub", "mul")}
        assert _disagreements(f, ops, rng) == [], M
        # mul as generated at every degree, also above the bound
        generated = _cyclotomic_ops(f.degree, f.reduction, f.zero)
        assert _disagreements(f, generated, rng) == [], M
        for a in _sample_scalars(f, rng):
            assert f.neg(a) == Field.mul(f, f.from_rat(-1), a)
            assert f.is_zero(a) == (a == f.zero)
    assert (QQ.add, QQ.sub, QQ.mul, QQ.neg, QQ.is_zero) == (
        operator.add, operator.sub, operator.mul, operator.neg, operator.not_)


def test_a_flipped_reduction_sign_fails_the_comparison():
    """Mutation check: ``mul`` generated from a reduction table with one
    entry's sign flipped disagrees with the reference ``Field.mul``."""
    rng = random.Random(7)
    flipped = 0
    for M in range(1, 31):
        f = make_cyclotomic(M)
        n = f.degree
        table = [list(row) for row in f.reduction[: n - 1]]  # what mul reads
        spots = [(t, k) for t, row in enumerate(table) for k, r in enumerate(row) if r]
        if not spots:
            continue  # degree 1: a product never reduces
        t, k = rng.choice(spots)
        table[t][k] = -table[t][k]
        ops = _cyclotomic_ops(n, [tuple(row) for row in table], f.zero)
        assert any(name == "mul" for name, _, _ in _disagreements(f, ops, rng)), (M, t, k)
        flipped += 1
    assert flipped == 28  # every M in 1..30 but 1 and 2


def test_field_pickles():
    for f in (QQ, make_cyclotomic(12)):
        g = pickle.loads(pickle.dumps(f))
        assert g is f


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


@pytest.mark.parametrize("f", [QQ, make_cyclotomic(5), make_cyclotomic(8)], ids=repr)
def test_split_join_and_int_numerators(f):
    rng = random.Random(77)
    values = [random_scalar(f, rng) for _ in range(6)] + [f.from_rat(3, 14), f.zero]
    nums, D = f.split(values)
    assert [f.join(n, D) for n in nums] == values
    for k in (-3, 0, 1, 12):
        n = f.numerator(k)
        assert f.join(n, 1) == f.from_rat(k)
        assert f.join(f.mul(n, nums[-2]), D) == f.mul(f.from_rat(k), values[-2])
    assert type(QQ.numerator(5)) is int


@pytest.mark.parametrize("f", [QQ, make_cyclotomic(5)], ids=repr)
def test_accumulate_drops_zero_sums_and_keeps_order(f):
    r = f.from_rat
    acc = {}
    f.accumulate(acc, "a", r(1, 2))
    f.accumulate(acc, "b", f.zero)
    f.accumulate(acc, "c", r(3))
    f.accumulate(acc, "a", r(-1, 2))
    assert acc == {"c": r(3)}
    f.accumulate(acc, "a", r(2))
    f.accumulate(acc, "c", r(1, 3))
    assert list(acc.items()) == [("c", r(10, 3)), ("a", r(2))]
    assert QQ.accumulate is accumulate
