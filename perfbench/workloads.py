"""The benchmark's workloads: fixed instance pools and one verdict per instance.

A workload has a pool of instances.  ``generate(i)`` builds instance ``i``
with the package's own generators (fresh objects every call, because the
package caches homology and powers on its objects), and ``verdict(inst)``
runs the exact verifier and returns ``(ok, dims)``: the verifier's verdict
and every dimension it reported.

The stream pools use the acceptance suite's own per-instance seed strings at
its default seed, so every run verifies the same instances and the dimension
digests recorded in ``digests.json`` apply to all of them.  The benchmark's
``--seed`` only permutes the order of the stream verdicts.  Random instance
sets drawn per seed spread too widely in cost (instance cost is heavy-tailed)
to resolve a 25 % bound within one run.
"""

from __future__ import annotations

import random

from ncomplex import brs, gauge, ndiff, young
from ncomplex import cosimplicial as cx
from ncomplex.fields import QQ, make_cyclotomic
from ncomplex.linalg import ExactMatrix, image_basis

POOL_SEED = 42  # the acceptance suite's default seed


# -- gauge-cyclo: Theorem 5 over Q(zeta_2N) (criterion 11) -------------------


def gauge_instance(i):
    rng = random.Random(f"{POOL_SEED}:gauge:{i}")
    N = rng.choice((3, 4, 5))
    f = make_cyclotomic(2 * N)
    return gauge.random_gauge_instance(f, N, rng, hmax=20)


def gauge_verdict(G):
    rep = gauge.theorem5_verify(G)
    return rep["ok"], rep["dims"]


# -- ndiff-rational: Lemma 1 hexagons and Proposition 3 SES over Q -------------
# Even pool indices are criterion-2 hexagon instances, odd ones criterion-3
# short exact sequences.


def ndiff_instance(i):
    j = i // 2
    if i % 2 == 0:
        rng = random.Random(f"{POOL_SEED}:hex:{j}")
        N = rng.choice((3, 4, 5))
        dim = rng.randint(4, 40)
        E, truth = ndiff.random_ndiff(QQ, N, dim, rng)
        return "hexagon", E, truth
    rng = random.Random(f"{POOL_SEED}:ses:{j}")
    N = rng.choice((3, 4))
    # criterion 3 keeps drawing the connecting-map shifts from this rng
    return "ses", ndiff.random_ses(QQ, N, rng), rng


def proposition4_dims(N, jordan):
    """dim H_(k) = dim H_(N-k) = sum_{j<=k} sum_{j<=i<=N-j} m_i for k <= N/2,
    from the Jordan multiplicities m_i alone."""
    dims = {}
    for k in range(1, N // 2 + 1):
        d = sum(jordan[i] for j in range(1, k + 1) for i in range(j, N - j + 1))
        dims[k] = dims[N - k] = d
    return dims


def ndiff_verdict(inst):
    kind, obj, extra = inst
    if kind == "hexagon":
        ok = ndiff.all_hexagons_check(obj)["ok"]
        dims = ndiff.homology(obj).dims()
        # oracle independent of the elimination code: the Jordan data the
        # generator built the module from
        return ok and dims == proposition4_dims(obj.N, extra), dims
    ses, rng = obj, extra
    ok = ndiff.ses_hexagon_check(ses)["ok"] and all(
        ndiff.connecting_well_defined(ses, m, rng, trials=10)
        for m in range(1, ses.E.N)
    )
    dims = {name: ndiff.homology(mod).dims()
            for name, mod in (("E", ses.E), ("F", ses.F), ("G", ses.G))}
    return ok, dims


# -- constructs: the paper's fixed structured constructs -----------------------
# The parameters are those of acceptance criteria 4, 5, 7, 10 and 12.  These
# inputs do not depend on any seed.


def theorem2():
    f = make_cyclotomic(3)
    q = f.zeta()
    A = cx.dual_numbers(f)
    E = cx.hochschild(A, cx.BimoduleData.regular(A), 6)
    cx.d0(E, q, 3).validate()
    cx.d1(E, q, 3).validate()
    rep = cx.theorem2_verify(E, q, 3, 6)
    return rep.ok, rep.details


def proposition7():
    f = make_cyclotomic(3)
    rep = cx.prop7_verify(cx.dual_numbers(f), f.zeta(), 3, 5)
    return rep.ok, rep.details


def theorem3():
    ok, offgrid, dims = True, False, {}
    for N, D, ks, w_max in ((3, 3, (1, 2), 6), (4, 2, (1, 2, 3), 5)):
        for k in ks:
            rep = young.poincare_verify(N, D, k, w_max)
            ok = ok and rep["ok"]
            offgrid = offgrid or (N == 3 and bool(rep["nonzero_offgrid"]))
            dims[f"N={N},D={D},k={k}"] = [
                rep["dims"], rep["nonzero_offgrid"], rep["h0_total"]]
    return ok and offgrid, dims


def theorem4():
    ab = brs.theorem4_verify(brs.abelian_system(), deg_max=5, wmax=4)
    na = brs.theorem4_verify(brs.twisted_nonabelian_system(), deg_max=6, wmax=4)
    ok = ab["ok"] and na["ok"] and 2 in na["tower_orders"]
    return ok, [ab["details"], na["details"], na["tower_orders"]]


def theorem6():
    f = make_cyclotomic(6)
    rng = random.Random(f"{POOL_SEED}:thm6")
    HI = image_basis(ExactMatrix.from_columns([{0: f.one}], 2, f))
    flip = ExactMatrix.from_rows([[f.one, f.zero], [f.zero, f.neg(f.one)]], f)
    S = ExactMatrix.from_rows([[f.zero, f.one], [f.zero, f.zero]], f)
    zero = ExactMatrix.zeros(2, 2, f)
    examples = (
        (cx.group_algebra_cyclic(f, 2), [ExactMatrix.identity(2, f), flip],
         zero),
        (cx.truncated_polynomials(f, 4),
         [ExactMatrix.identity(2, f), S, zero, zero], S),
    )
    ok, dims = True, []
    for U, act, A in examples:
        G = gauge.GaugeInstance(3, A, HI, f.zeta())
        ok = ok and gauge.lemma15_check(gauge.GaugeCochains(U, act, G, 4), rng)
        # without the re-check at window n_max + 1: it took 9 of the 21 s
        # of a pass over this pool, repeating the same builders and products
        # at a larger window
        rep = gauge.theorem6_verify(U, act, G, stability=False)
        ok = ok and rep["ok"]
        dims.append(rep["per_k"])
    return ok, dims


CONSTRUCTS = (
    ("theorem2", theorem2),
    ("proposition7", proposition7),
    ("theorem3", theorem3),
    ("theorem4", theorem4),
    ("theorem6", theorem6),
)


def construct_instance(i):
    # the fields are set-up; everything the builders make is verdict time
    make_cyclotomic(3)
    make_cyclotomic(6)
    return CONSTRUCTS[i][1]


def construct_verdict(fn):
    return fn()


class Workload:
    def __init__(self, name, why, pool, generate, verdict, seeded,
                 pass_seconds):
        self.name = name
        self.why = why
        self.pool = pool
        self.generate = generate
        self.verdict = verdict
        self.seeded = seeded
        self.pass_seconds = pass_seconds

    def passes(self, seconds):
        """Passes over the pool in a run of ``seconds``.  ``pass_seconds`` is
        a fixed allowance per pass, about one pass of the seed commit, so the
        count never depends on the speed of the code under test."""
        return max(1, int(seconds // self.pass_seconds))

    def order(self, seed):
        """Verdict order of one run: a seeded shuffle of the pool for the
        streams, the fixed construct order otherwise."""
        order = list(range(self.pool))
        if self.seeded:
            random.Random(f"perfbench:{self.name}:{seed}").shuffle(order)
        return order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gauge-cyclo",
            "Theorem-5 stream over Q(zeta_2N): dimension-only queries where "
            "products and row reduction dominate",
            30, gauge_instance, gauge_verdict, True, 8.0,
        ),
        Workload(
            "ndiff-rational",
            "Lemma-1 and Proposition-3 stream over Q: one solver build, then "
            "thousands of representative solves",
            100, ndiff_instance, ndiff_verdict, True, 6.0,
        ),
        Workload(
            "constructs",
            "the paper's large sparse structured constructs, where the "
            "builders carry real weight",
            len(CONSTRUCTS), construct_instance, construct_verdict, False,
            8.0,
        ),
    )
}
