"""The acceptance suite: one function per criterion, exact arithmetic
throughout, seeded and reproducible.  Each returns a CriterionReport that the
CLI prints and the test suite asserts on."""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field as dc_field

from .fields import QQ, make_cyclotomic, q_binomial
from .linalg import ExactMatrix, image_basis
from . import ndiff
from . import graded
from . import cosimplicial as cx
from . import young
from . import brs
from . import gauge


@dataclass
class CriterionReport:
    number: int
    name: str
    ok: bool
    elapsed: float
    budget: float
    details: dict = dc_field(default_factory=dict)
    witness: dict = dc_field(default_factory=dict)

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return (
            f"criterion {self.number:2d} [{status}] {self.name} "
            f"({self.elapsed:.1f}s / budget {self.budget:.0f}s)"
        )

    def to_json(self):
        return {
            "schema_version": 1,
            "number": self.number,
            "name": self.name,
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
            "budget_seconds": self.budget,
            "details": self.details,
            "witness": self.witness,
        }


def _threads():
    raw = os.environ.get("NCX_THREADS") or "1"
    n = int(raw) if raw.strip().isdecimal() else 0
    if n < 1:
        raise ValueError(f"NCX_THREADS must be a positive integer, got {raw!r}")
    return n


def _usable_cpus():
    """The CPUs this process may run on, or the machine's count where the
    platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _instance(job):
    worker, tag, seed, i, args = job
    return worker(random.Random(f"{seed}:{tag}:{i}"), *args)


def pooled_witnesses(worker, tag, seed, count, *args):
    """Run ``worker(random.Random(f"{seed}:{tag}:{i}"), *args)`` for the
    instances i < count, on a pool of NCX_THREADS processes (at most count
    and the usable CPUs) when that is above 1, and return the witnesses of
    the failing instances, those for which the worker returned anything but
    None, in index order."""
    n = min(_threads(), count, _usable_cpus())
    jobs = [(worker, tag, seed, i, args) for i in range(count)]
    if n <= 1 or count < 4:
        results = map(_instance, jobs)
    else:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(_instance, jobs,
                                    chunksize=max(1, count // (4 * n))))
    return [w for w in results if w is not None]


def _pooled(worker, tag, count):
    """The ``run`` of a pooled criterion: count seeded instances of worker,
    the first failing one as witness."""
    def run(seed):
        bad = pooled_witnesses(worker, tag, seed, count)
        return not bad, {"instances": count, "failures": len(bad)}, (
            bad[0] if bad else {}
        )

    return run


def _timed(number, name, budget, fn, seed):
    t0 = time.perf_counter()
    ok, details, witness = fn(seed)
    return CriterionReport(number, name, ok, time.perf_counter() - t0, budget,
                           details, witness)


# -- 1: Proposition 4 ----------------------------------------------------------


def _prop4_worker(rng):
    N = rng.choice((3, 4, 5))
    dim = rng.randint(4, 60)
    E, truth = ndiff.random_ndiff(QQ, N, dim, rng)
    ok = ndiff.proposition4_check(E)["ok"] and ndiff.multiplicities(E).counts == truth
    return None if ok else E.to_json()


def criterion_1(seed=42):
    return _timed(1, "Proposition 4: multiplicity formula vs ranks", 60,
                  _pooled(_prop4_worker, "prop4", 200), seed)


# -- 2: Lemma 1 hexagons --------------------------------------------------------


def _hexagon_worker(rng):
    N = rng.choice((3, 4, 5))
    dim = rng.randint(4, 40)
    E, _ = ndiff.random_ndiff(QQ, N, dim, rng)
    return None if ndiff.all_hexagons_check(E)["ok"] else E.to_json()


def criterion_2(seed=42):
    return _timed(2, "Lemma 1: exact hexagons on random modules", 120,
                  _pooled(_hexagon_worker, "hex", 200), seed)


# -- 3: Proposition 3 SES --------------------------------------------------------


def _ses_worker(rng):
    """The witness is the whole sequence, in ``ncx ses`` input form."""
    N = rng.choice((3, 4))
    ses = ndiff.random_ses(QQ, N, rng)
    ok = ndiff.ses_hexagon_check(ses)["ok"] and all(
        ndiff.connecting_well_defined(ses, m) for m in range(1, N))
    return None if ok else ses.to_json()


def criterion_3(seed=42):
    return _timed(3, "Proposition 3: SES hexagons and connecting maps", 120,
                  _pooled(_ses_worker, "ses", 100), seed)


# -- 4: Lemma 5 + Theorem 2 ------------------------------------------------------


def criterion_4(seed=42):
    def run(seed):
        f = make_cyclotomic(3)
        q = f.zeta()
        A = cx.dual_numbers(f)
        E = cx.hochschild(A, cx.BimoduleData.regular(A), 6)
        # certifies d_0^3 = d_1^3 = 0 inside the window (Lemma 5)
        rep = cx.theorem2_verify(E, q, 3, 6)
        details = dict(rep.details)
        details["ordinary"] = {str(k): v for k, v in rep.details["ordinary"].items()}
        return rep.ok, details, {}

    return _timed(
        4, "Lemma 5 + Theorem 2: Hochschild of Q(z3)[t]/(t^2)", 120, run, seed
    )


# -- 5: Proposition 7 ------------------------------------------------------------


def criterion_5(seed=42):
    def run(seed):
        f = make_cyclotomic(3)
        rep = cx.prop7_verify(cx.dual_numbers(f), f.zeta(), 3, 5)
        return rep.ok, {"checked": len(rep.details["T"])}, {}

    return _timed(
        5, "Proposition 7: acyclicity of (T(A), d_1) and Omega_q(A)", 60, run,
        seed,
    )


# -- 6: the Z_N matrix-algebra example -------------------------------------------


def criterion_6(seed=42):
    def run(seed):
        details = {}
        for N in (3, 4, 5):
            f = make_cyclotomic(N)
            M = graded.matrix_algebra_complex(N, f.zeta(), [f.one] * N, f)
            if not M.e_power_is_scalar():
                return False, details, {"N": N, "check": "e^N"}
            if not graded.check_graded_q_leibniz(M.complex, f.zeta()):
                return False, details, {"N": N, "check": "q-Leibniz"}
            total = M.complex.total_module()
            dims = ndiff.homology(total).dims()
            details[f"N={N}"] = dims
            if any(v != 0 for v in dims.values()):
                return False, details, {"N": N, "check": "acyclicity"}
        return True, details, {}

    return _timed(
        6, "Z_N matrix algebra: d^N = 0, q-Leibniz, acyclicity", 30, run, seed
    )


# -- 7: Theorem 3 ----------------------------------------------------------------


def criterion_7(seed=42):
    def run(seed):
        details = {}
        offgrid_seen = False
        for k in (1, 2):
            rep = young.poincare_verify(3, 3, k, 6)
            details[f"N=3,D=3,k={k}"] = {
                "ok": rep["ok"],
                "h0": rep["h0_total"],
                "offgrid": len(rep["nonzero_offgrid"]),
            }
            offgrid_seen = offgrid_seen or bool(rep["nonzero_offgrid"])
            if not rep["ok"]:
                return False, details, {"k": k}
        for k in (1, 2, 3):
            rep = young.poincare_verify(4, 2, k, 5)
            details[f"N=4,D=2,k={k}"] = {"ok": rep["ok"]}
            if not rep["ok"]:
                return False, details, {"k": k, "N": 4}
        details["offgrid_witness_found"] = offgrid_seen
        return offgrid_seen, details, {}

    return _timed(
        7, "Theorem 3: generalized Poincare lemma per weight", 600, run, seed
    )


# -- 8: spin sequences -----------------------------------------------------------


def criterion_8(seed=42):
    def run(seed):
        details = {}
        for S in (1, 2):
            rep = young.spin_sequence_check(S, 4, 5)
            details[f"S={S}"] = rep["ok"]
            if not rep["ok"]:
                return False, details, {"S": S}
        prop = young.spin2_middle_proportional(4, 5)
        details["d2_proportional_to_d_squared"] = prop
        return prop["ok"], details, {}

    return _timed(
        8, "Higher-spin sequences exact; spin-2 middle map = c d^2", 300, run,
        seed,
    )


# -- 9: potential solver ---------------------------------------------------------


def criterion_9(seed=42):
    def run(seed):
        rng = random.Random(f"{seed}:potential")
        for i in range(20):
            T = young.random_divergence_free(rng)
            out = young.potential_solve(T, 2)  # raises on failure
            if any(T.values()) and not out["R"]:
                return False, {"instance": i}, {"T": "empty R"}
        return True, {"instances": 20}, {}

    return _timed(
        9, "Divergence-free T = dd R potential solver round-trip", 60, run,
        seed,
    )


# -- 10: BRS / Theorem 4 ---------------------------------------------------------


def criterion_10(seed=42):
    def run(seed):
        details = {}
        rep = brs.theorem4_verify(brs.abelian_system(), deg_max=5, wmax=4)
        details["abelian"] = rep["details"]
        if not rep["ok"]:
            return False, details, {"system": "abelian"}
        rep = brs.theorem4_verify(
            brs.twisted_nonabelian_system(), deg_max=6, wmax=4
        )
        details["nonabelian"] = rep["details"]
        details["nonabelian_tower"] = rep["tower_orders"]
        if not rep["ok"] or 2 not in rep["tower_orders"]:
            return False, details, {"system": "nonabelian"}
        return True, details, {}

    return _timed(
        10, "BRS tower identities and Theorem 4 dimension match", 300, run,
        seed,
    )


# -- 11: Theorem 5 ---------------------------------------------------------------


def _theorem5_worker(rng, hmax=20):
    N = rng.choice((3, 4, 5))
    f = make_cyclotomic(2 * N)
    G = gauge.random_gauge_instance(f, N, rng, hmax=hmax)
    return None if gauge.theorem5_verify(G)["ok"] else G.to_json()


def criterion_11(seed=42):
    return _timed(11, "Theorem 5: H(H-bullet, Q) = H(H_I, A) on 500 instances",
                  300, _pooled(_theorem5_worker, "gauge", 500), seed)


# -- 12: Lemma 15 / Theorem 6 ----------------------------------------------------


def criterion_12(seed=42):
    def run(seed):
        from .cosimplicial import group_algebra_cyclic, truncated_polynomials

        details = {}
        f = make_cyclotomic(6)
        # Z/2 group algebra
        U = group_algebra_cyclic(f, 2)
        act = [
            ExactMatrix.identity(2, f),
            ExactMatrix.from_rows(
                [[f.one, f.zero], [f.zero, f.neg(f.one)]], f
            ),
        ]
        HI = image_basis(ExactMatrix.from_columns([{0: f.one}], 2, f))
        G = gauge.GaugeInstance(3, ExactMatrix.zeros(2, 2, f), HI, f.zeta())
        C = gauge.GaugeCochains(U, act, G, 4)
        if not gauge.lemma15_check(C):
            return False, details, {"example": "Z/2", "check": "lemma 15"}
        rep = gauge.theorem6_verify(U, act, G)
        details["Z/2"] = {
            str(k): (v["F0"], v["H_(k)(HI,A)"]) for k, v in rep["per_k"].items()
        }
        if not rep["ok"]:
            return False, details, {"example": "Z/2"}
        # synthetic 4-dimensional augmented algebra k[s]/(s^4)
        U2 = truncated_polynomials(f, 4)
        S = ExactMatrix.from_rows([[f.zero, f.one], [f.zero, f.zero]], f)
        act2 = [
            ExactMatrix.identity(2, f), S,
            ExactMatrix.zeros(2, 2, f), ExactMatrix.zeros(2, 2, f),
        ]
        G2 = gauge.GaugeInstance(3, S, HI, f.zeta())
        C2 = gauge.GaugeCochains(U2, act2, G2, 4)
        if not gauge.lemma15_check(C2):
            return False, details, {"example": "synthetic", "check": "lemma 15"}
        rep2 = gauge.theorem6_verify(U2, act2, G2)
        details["synthetic"] = {
            str(k): (v["F0"], v["H_(k)(HI,A)"], v["method"])
            for k, v in rep2["per_k"].items()
        }
        return rep2["ok"], details, {}

    return _timed(
        12, "Lemma 15 and Theorem 6 with window stability", 300, run, seed
    )


# -- 13: the spin-1 / spin-2 / two-particle examples ------------------------------


def criterion_13(seed=42):
    def run(seed):
        f4 = make_cyclotomic(4)
        details = {}
        rep1 = gauge.spin_complex_report(1, (1, 1, 0, 0), f4.zeta(), f4)
        details["spin1"] = rep1
        if not (rep1["hermitian"] and rep1["H_dims"] == {-1: 0, 0: 2, 1: 0}):
            return False, details, {"part": "spin1"}
        rep2 = gauge.spin_complex_report(2, (1, 1, 0, 0), f4.zeta(), f4)
        details["spin2"] = rep2
        if not (
            rep2["hermitian"]
            and rep2["H_dims"] == {-1: 0, 0: 2, 1: 0}
            and (rep2["C0"], rep2["Z"], rep2["B"]) == (10, 6, 4)
        ):
            return False, details, {"part": "spin2"}
        two = gauge.two_particle_study((1, 1, 0, 0), (1, 0, 1, 0))
        details["two_particle"] = two
        return two["ok"], details, {}

    return _timed(
        13, "Spin-1/spin-2 complexes and the two-particle no-go", 30, run,
        seed,
    )


# -- 14: q-combinatorics ----------------------------------------------------------


def criterion_14(seed=42):
    def run(seed):
        for N in range(2, 13):
            f = make_cyclotomic(N)
            q = f.zeta()
            for m in range(1, N):
                if not f.is_zero(q_binomial(N, m, q, f)):
                    return False, {}, {"N": N, "m": m}
        # q_tensor d^N = 0 with the power formula, on the matrix example
        f3 = make_cyclotomic(3)
        M = graded.matrix_algebra_complex(3, f3.zeta(), [f3.one] * 3, f3)
        graded.q_tensor(M.complex, M.complex, f3.zeta())  # validates inside
        # Kunneth for 50 random classical pairs
        rng = random.Random(f"{seed}:kunneth")
        for i in range(50):
            A = graded.random_graded_complex(QQ, 2, rng, lo=0, hi=3,
                                             strings=rng.randint(3, 5))
            B = graded.random_graded_complex(QQ, 2, rng, lo=0, hi=3,
                                             strings=rng.randint(3, 5))
            if not graded.kunneth_check(A, B)["ok"]:
                return False, {"pair": i}, {"pair": i}
        return True, {"binomial_N": "2..12", "kunneth_pairs": 50}, {}

    return _timed(
        14, "q-binomials under (A1); q-tensor and Kunneth", 60, run, seed
    )


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13, criterion_14,
]


def run_all(seed=42, numbers=None):
    unknown = sorted(set(numbers or ()) - set(range(1, len(ALL_CRITERIA) + 1)))
    if unknown:
        raise ValueError(f"no criterion {unknown}; criteria are 1-{len(ALL_CRITERIA)}")
    reports = []
    for i, crit in enumerate(ALL_CRITERIA, start=1):
        if numbers and i not in numbers:
            continue
        reports.append(crit(seed=seed))
    return reports
