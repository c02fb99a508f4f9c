"""The acceptance suite: one row (name, budget, run) per criterion, exact
arithmetic throughout, seeded and reproducible.  Each row is called as
``crit(seed=42)`` and returns a CriterionReport that the CLI prints and the
test suite asserts on.  A verdict that an ``ncx`` command and a criterion
both compute is written once here, and both call it."""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field as dc_field
from functools import partial

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


class UsageError(Exception):
    """Bad input or options: ``ncx`` prints one ``ncx:`` line and exits 2."""


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


def _timed(number, name, budget, fn, seed=42):
    t0 = time.perf_counter()
    ok, details, witness = fn(seed)
    return CriterionReport(number, name, ok, time.perf_counter() - t0, budget,
                           details, witness)


# -- the verdicts that a command and a criterion share ---------------------------
# A dict returned here is the body of the command's report, "ok" included;
# cli.main adds the command's name.


def prop4_verdict(E):
    """Proposition 4 on E: the multiplicity formula against the ranks."""
    rep = ndiff.proposition4_check(E)
    return {"ok": rep["ok"],
            "multiplicities": {str(k): v for k, v in rep["multiplicities"].items()},
            "dims": {str(k): v for k, v in rep["dims"].items()}}


def hexagon_verdict(E):
    """Lemma 1 on E: every hexagon exact, and their count."""
    rep = ndiff.all_hexagons_check(E)
    return {"ok": rep["ok"], "checked": len(rep["hexagons"])}


def ses_verdict(ses):
    """Proposition 3 on a short exact sequence: its hexagons, and the
    connecting map well defined for every m."""
    hexagons = ndiff.ses_hexagon_check(ses)["ok"]
    well = all(ndiff.connecting_well_defined(ses, m) for m in range(1, ses.E.N))
    return {"hexagons_ok": hexagons, "well_defined": well, "ok": hexagons and well}


def root_of_unity(field, N):
    """q = zeta_M^(M/N), the primitive N-th root of unity of Q(zeta_M)."""
    if field.kind != "cyclotomic" or field.M % N:
        raise UsageError("field must contain a primitive N-th root of unity")
    return field.pow(field.zeta(), field.M // N)


def theorem2_verdict(A, N, window):
    """Lemma 5 and Theorem 2 on the Hochschild complex of A with coefficients
    in A, levels 0..window: (ok, details), the ordinary dimensions keyed by
    str."""
    q = root_of_unity(A.field, N)
    E = cx.hochschild(A, cx.BimoduleData.regular(A), window)
    # certifies d_0^N = d_1^N = 0 inside the window (Lemma 5)
    rep = cx.theorem2_verify(E, q, N, window)
    ordinary = {str(k): v for k, v in rep.details["ordinary"].items()}
    return rep.ok, {**rep.details, "ordinary": ordinary}


def prop7_verdict(A, N, window):
    """Proposition 7 on A up to the window, as ``cx.prop7_verify`` reports it."""
    return cx.prop7_verify(A, root_of_unity(A.field, N), N, window)


def poincare_verdict(N, D, k, wmax):
    """Theorem 3 for one k over weights 0..wmax, with its (w, p, dim H) table."""
    rep = young.poincare_verify(N, D, k, wmax)
    table = sorted(
        ([key.split(",")[0][2:], key.split(",")[1][2:], dim]
         for key, dim in rep["dims"].items()),
        key=lambda row: (int(row[0]), int(row[1])),
    )
    return {
        "ok": rep["ok"], "N": N, "D": D, "k": k, "w_max": wmax,
        "h0_total": rep["h0_total"],
        "h0_expected": rep["h0_expected_total"],
        "nonzero_offgrid": rep["nonzero_offgrid"],
        "table_header": ["w", "p", "dim_H"],
        "table": table,
    }


def spin_sequence_verdict(S, D, wmax):
    """The higher-spin sequence exact at degrees S and 2S; for S = 2 also the
    middle map against d^2."""
    rep = {"ok": young.spin_sequence_check(S, D, wmax)["ok"], "S": S, "D": D}
    if S == 2:
        prop = young.spin2_middle_proportional(D, wmax)
        rep["d2_proportional"] = prop
        rep["ok"] = rep["ok"] and prop["ok"]
    return rep


def theorem5_verdict(G):
    """Theorem 5 on G, with the two dimensions per k."""
    rep = gauge.theorem5_verify(G)
    return {"ok": rep["ok"],
            "dims": {str(k): list(v) for k, v in rep["dims"].items()}}


def spin_complex_verdict(spin, p):
    """(ok, report) of the spin-1 or spin-2 complex at the light-like momentum
    p over Q(i): ok when it is hermitian with H = k^2 in degree 0 alone, and
    for spin 2 with dim C^0, Z, B = 10, 6, 4."""
    f4 = make_cyclotomic(4)
    rep = gauge.spin_complex_report(spin, p, f4.zeta(), f4)
    ok = (rep["hermitian"] and rep["H_dims"] == {-1: 0, 0: 2, 1: 0}
          and (spin == 1 or (rep["C0"], rep["Z"], rep["B"]) == (10, 6, 4)))
    return ok, rep


# -- 1: Proposition 4 ----------------------------------------------------------


def _prop4_worker(rng):
    N = rng.choice((3, 4, 5))
    dim = rng.randint(4, 60)
    E, truth = ndiff.random_ndiff(QQ, N, dim, rng)
    ok = prop4_verdict(E)["ok"] and ndiff.multiplicities(E).counts == truth
    return None if ok else E.to_json()


# -- 2: Lemma 1 hexagons --------------------------------------------------------


def _hexagon_worker(rng):
    N = rng.choice((3, 4, 5))
    dim = rng.randint(4, 40)
    E, _ = ndiff.random_ndiff(QQ, N, dim, rng)
    return None if hexagon_verdict(E)["ok"] else E.to_json()


# -- 3: Proposition 3 SES --------------------------------------------------------


def _ses_worker(rng):
    """The witness is the whole sequence, in ``ncx ses`` input form."""
    N = rng.choice((3, 4))
    ses = ndiff.random_ses(QQ, N, rng)
    return None if ses_verdict(ses)["ok"] else ses.to_json()


# -- 4: Lemma 5 + Theorem 2 ------------------------------------------------------


def _theorem2(seed):
    ok, details = theorem2_verdict(cx.dual_numbers(make_cyclotomic(3)), 3, 6)
    return ok, details, {}


# -- 5: Proposition 7 ------------------------------------------------------------


def _prop7(seed):
    rep = prop7_verdict(cx.dual_numbers(make_cyclotomic(3)), 3, 5)
    return rep.ok, {"checked": len(rep.details["T"])}, {}


# -- 6: the Z_N matrix-algebra example -------------------------------------------


def _matrix_algebra(seed):
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


# -- 7: Theorem 3 ----------------------------------------------------------------


def _poincare(seed):
    details = {}
    offgrid_seen = False
    for k in (1, 2):
        rep = poincare_verdict(3, 3, k, 6)
        details[f"N=3,D=3,k={k}"] = {
            "ok": rep["ok"],
            "h0": rep["h0_total"],
            "offgrid": len(rep["nonzero_offgrid"]),
        }
        offgrid_seen = offgrid_seen or bool(rep["nonzero_offgrid"])
        if not rep["ok"]:
            return False, details, {"k": k}
    for k in (1, 2, 3):
        rep = poincare_verdict(4, 2, k, 5)
        details[f"N=4,D=2,k={k}"] = {"ok": rep["ok"]}
        if not rep["ok"]:
            return False, details, {"k": k, "N": 4}
    details["offgrid_witness_found"] = offgrid_seen
    return offgrid_seen, details, {}


# -- 8: spin sequences -----------------------------------------------------------


def _spin_sequences(seed):
    details = {}
    for S in (1, 2):
        rep = spin_sequence_verdict(S, 4, 5)
        details[f"S={S}"] = rep["ok"]
        if not rep["ok"]:
            return False, details, {"S": S}
    details["d2_proportional_to_d_squared"] = rep["d2_proportional"]
    return True, details, {}


# -- 9: potential solver ---------------------------------------------------------


def _potential(seed):
    rng = random.Random(f"{seed}:potential")
    for i in range(20):
        T = young.random_divergence_free(rng)
        out = young.potential_solve(T, 2)  # raises on failure
        if any(T.values()) and not out["R"]:
            return False, {"instance": i}, {"T": "empty R"}
    return True, {"instances": 20}, {}


# -- 10: BRS / Theorem 4 ---------------------------------------------------------


def _brs(seed):
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


# -- 11: Theorem 5 ---------------------------------------------------------------


def _theorem5_worker(rng, hmax=20):
    N = rng.choice((3, 4, 5))
    f = make_cyclotomic(2 * N)
    G = gauge.random_gauge_instance(f, N, rng, hmax=hmax)
    return None if theorem5_verdict(G)["ok"] else G.to_json()


# -- 12: Lemma 15 / Theorem 6 ----------------------------------------------------


def _theorem6(seed):
    details = {}
    f = make_cyclotomic(6)
    # Z/2 group algebra
    U = cx.group_algebra_cyclic(f, 2)
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
    U2 = cx.truncated_polynomials(f, 4)
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


# -- 13: the spin-1 / spin-2 / two-particle examples ------------------------------


def _spin_examples(seed):
    details = {}
    for spin in (1, 2):
        ok, details[f"spin{spin}"] = spin_complex_verdict(spin, (1, 1, 0, 0))
        if not ok:
            return False, details, {"part": f"spin{spin}"}
    two = gauge.two_particle_study((1, 1, 0, 0), (1, 0, 1, 0))
    details["two_particle"] = two
    return two["ok"], details, {}


# -- 14: q-combinatorics ----------------------------------------------------------


def _q_combinatorics(seed):
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


# criterion k is row k: (name, budget in seconds, run)
ALL_CRITERIA = [partial(_timed, number, *row) for number, row in enumerate([
    ("Proposition 4: multiplicity formula vs ranks", 60,
     _pooled(_prop4_worker, "prop4", 200)),
    ("Lemma 1: exact hexagons on random modules", 120,
     _pooled(_hexagon_worker, "hex", 200)),
    ("Proposition 3: SES hexagons and connecting maps", 120,
     _pooled(_ses_worker, "ses", 100)),
    ("Lemma 5 + Theorem 2: Hochschild of Q(z3)[t]/(t^2)", 120, _theorem2),
    ("Proposition 7: acyclicity of (T(A), d_1) and Omega_q(A)", 60, _prop7),
    ("Z_N matrix algebra: d^N = 0, q-Leibniz, acyclicity", 30, _matrix_algebra),
    ("Theorem 3: generalized Poincare lemma per weight", 600, _poincare),
    ("Higher-spin sequences exact; spin-2 middle map = c d^2", 300,
     _spin_sequences),
    ("Divergence-free T = dd R potential solver round-trip", 60, _potential),
    ("BRS tower identities and Theorem 4 dimension match", 300, _brs),
    ("Theorem 5: H(H-bullet, Q) = H(H_I, A) on 500 instances", 300,
     _pooled(_theorem5_worker, "gauge", 500)),
    ("Lemma 15 and Theorem 6 with window stability", 300, _theorem6),
    ("Spin-1/spin-2 complexes and the two-particle no-go", 30, _spin_examples),
    ("q-binomials under (A1); q-tensor and Kunneth", 60, _q_combinatorics),
], start=1)]


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
