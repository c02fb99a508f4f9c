"""Outside-in layer trace of the ncomplex package.

``Tracer.install()`` wraps the public entry points of each module from the
outside and rebinds every name that refers to them, including the names other
modules imported with ``from .linalg import rank``.  While ``active`` is set,
a wrapped call records a span (name, start, end, parent span, verdict) and
the counters of its layer.  Spans stay in memory until the run writes them.

A span's self time is its duration minus the time its child spans cover.
The tracer's own bookkeeping (operand sizes, coefficient bits) runs outside
the span and is charged to no layer.  Times are read from ``now``, by
default ``perf_counter``; the benchmark passes a clock that leaves out its
host-speed probes, so a probe is charged to no layer wherever it falls.  Scalar operations are counted but not
timed, because timing each would swamp the run.
"""

from __future__ import annotations

import sys
from time import perf_counter

import ncomplex
from ncomplex import _kernel_py, brs, cosimplicial, gauge, graded, kernel
from ncomplex import linalg, ndiff, young
from ncomplex.fields import Field

# span name -> per-layer self-time metric
SELF_TIME = {
    "linalg.matmul": "linalg.matmul_self_s",
    "linalg.apply": "linalg.apply_self_s",
    "kernel.row_echelon": "kernel.row_echelon_self_s",
    "linalg.solver_build": "linalg.solver_build_self_s",
    "linalg.solve": "linalg.solve_self_s",
    "linalg.quotient_build": "linalg.quotient_build_self_s",
    "ndiff.homology": "ndiff.homology_self_s",
    "ndiff.image_chain": "ndiff.image_chain_self_s",
    "graded.graded_homology": "graded.graded_homology_self_s",
    "gauge.extend": "gauge.extend_self_s",
    "gauge.cochains": "gauge.cochains_self_s",
    "cosimplicial.hochschild": "cosimplicial.build_self_s",
    "cosimplicial.tensor_algebra": "cosimplicial.build_self_s",
    "cosimplicial.universal_envelope": "cosimplicial.build_self_s",
    "cosimplicial.omega_q": "cosimplicial.build_self_s",
    "young.weight_complex": "young.weight_complex_self_s",
    "brs.GhostComplex": "brs.build_self_s",
    "brs.delta_tower": "brs.build_self_s",
    "brs.koszul_homology": "brs.build_self_s",
    "brs.LongitudinalComplex": "brs.build_self_s",
    "acceptance.verdict": "acceptance.verdict_self_s",
}

# span name -> call-count metric
CALLS = {
    "linalg.matmul": "linalg.matmul_calls",
    "linalg.apply": "linalg.apply_calls",
    "kernel.row_echelon": "kernel.row_echelon_calls",
    "linalg.solver_build": "linalg.solver_builds",
    "linalg.solve": "linalg.solve_calls",
    "linalg.quotient_build": "linalg.quotient_builds",
}

COUNTS = (
    "fields.mul_calls", "fields.add_calls", "fields.inv_calls",
    "linalg.matmul_calls", "linalg.matmul_terms", "linalg.matmul_nnz_out",
    "linalg.power_calls", "linalg.apply_calls",
    "kernel.row_echelon_calls", "kernel.rows_in", "kernel.nnz_in",
    "kernel.nnz_out", "kernel.rank_total", "kernel.max_coeff_bits",
    "linalg.solver_builds", "linalg.solve_calls", "linalg.solve_misses",
    "linalg.quotient_builds", "linalg.quotients_used",
    "young.weight_complex_cache_hits",
)


def _bits(v):
    if isinstance(v, tuple):
        return max((_bits(x) for x in v), default=0)
    return max(abs(v.numerator).bit_length(), v.denominator.bit_length())


def _rows_bits(rows):
    return max((_bits(v) for _, vals in rows for v in vals), default=0)


def package_modules():
    return [m for n, m in sys.modules.items()
            if n == "ncomplex" or n.startswith("ncomplex.")]


class Tracer:
    def __init__(self, now=perf_counter):
        self.now = now
        self.active = False
        self.verdict = None
        self.spans = []   # (id, name, parent id, verdict, start, end, self)
        self._stack = []  # frames [id, name, start, child time]
        self._next_id = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.py_row_echelon_calls = 0
        self._patches = []  # (owner, attribute, original value)

    # -- spans -------------------------------------------------------------

    def push(self, name):
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = self.now()
        return frame

    def pop(self, frame):
        end = self.now()
        self._stack.pop()
        dur = end - frame[2]
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += dur
        self.spans.append((frame[0], frame[1], parent, self.verdict, frame[2],
                           end, dur - frame[3]))

    def exclude(self, since):
        """Charge the bookkeeping since ``since`` to no layer."""
        if self._stack:
            self._stack[-1][3] += self.now() - since

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.py_row_echelon_calls = 0

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper):
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, name, wrapper)

    def _span_function(self, mod, attr, name, pre=None, post=None):
        orig = getattr(mod, attr)
        self._rebind(orig, self._spanned(orig, name, pre, post))

    def _span_method(self, cls, attr, name, pre=None, post=None):
        orig = cls.__dict__[attr]
        self._patch(cls, attr, self._spanned(orig, name, pre, post))

    def _spanned(self, fn, name, pre, post):
        tracer = self
        calls = CALLS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if calls:
                tracer.counts[calls] += 1
            if pre:
                t = tracer.now()
                pre(args)
                tracer.exclude(t)
            frame = tracer.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if post:
                t = tracer.now()
                post(args, out)
                tracer.exclude(t)
            return out

        return wrapper

    def _count_method(self, cls, attr, metric):
        orig = cls.__dict__[attr]
        tracer = self

        def wrapper(self, *args):
            if tracer.active:
                tracer.counts[metric] += 1
            return orig(self, *args)

        self._patch(cls, attr, wrapper)

    def install(self):
        c = self.counts_add
        tracer = self

        # fields: counts only
        for attr in ("mul", "add", "inv"):
            self._count_method(Field, attr, f"fields.{attr}_calls")

        # linalg products
        def matmul_pre(args):
            a, b = args
            col_a = {}
            for _, k in a.entries:
                col_a[k] = col_a.get(k, 0) + 1
            row_b = {}
            for k, _ in b.entries:
                row_b[k] = row_b.get(k, 0) + 1
            c("linalg.matmul_terms",
              sum(n * row_b.get(k, 0) for k, n in col_a.items()))

        def matmul_post(args, out):
            c("linalg.matmul_nnz_out", len(out.entries))

        M = linalg.ExactMatrix
        self._span_method(M, "__matmul__", "linalg.matmul", matmul_pre,
                          matmul_post)
        self._span_method(M, "apply", "linalg.apply")
        self._count_method(M, "power", "linalg.power_calls")
        self._count_method(ndiff.NDiffModule, "power", "linalg.power_calls")

        # kernel
        def echelon_pre(args):
            rows = args[0]
            c("kernel.rows_in", len(rows))
            c("kernel.nnz_in", sum(len(cols) for cols, _ in rows))
            tracer.max_bits(_rows_bits(rows))

        def echelon_post(args, out):
            pivots, erows, residual = out
            c("kernel.rank_total", len(pivots))
            c("kernel.nnz_out", sum(len(cols) for cols, _ in erows)
              + sum(len(cols) for cols, _ in residual))
            tracer.max_bits(max(_rows_bits(erows), _rows_bits(residual)))

        self._span_function(kernel, "row_echelon", "kernel.row_echelon",
                            echelon_pre, echelon_post)
        py_echelon = _kernel_py.row_echelon

        def py_row_echelon(*args, **kwargs):
            if tracer.active:
                tracer.py_row_echelon_calls += 1
            return py_echelon(*args, **kwargs)

        self._rebind(py_echelon, py_row_echelon)

        # solving and quotients
        def solve_post(args, out):
            if out is None:
                c("linalg.solve_misses", 1)

        self._span_method(linalg.EchelonSolver, "__init__",
                          "linalg.solver_build")
        self._span_method(linalg.EchelonSolver, "solve", "linalg.solve",
                          post=solve_post)

        def quotient_post(args, out):
            args[0]._perfbench_traced = True

        self._span_method(linalg.QuotientSpace, "__init__",
                          "linalg.quotient_build", post=quotient_post)
        for attr in ("coordinates", "representatives"):
            self._mark_used(linalg.QuotientSpace, attr)

        # homology
        self._span_function(ndiff, "homology", "ndiff.homology")
        self._span_method(ndiff.NDiffModule, "image_chain",
                          "ndiff.image_chain")
        self._span_function(graded, "graded_homology",
                            "graded.graded_homology")

        # builders
        self._span_function(gauge, "extend", "gauge.extend")
        self._span_method(gauge.GaugeCochains, "__init__", "gauge.cochains")
        for attr in ("hochschild", "tensor_algebra", "universal_envelope",
                     "omega_q"):
            self._span_function(cosimplicial, attr, f"cosimplicial.{attr}")
        self._span_method(brs.GhostComplex, "__init__", "brs.GhostComplex")
        self._span_method(brs.LongitudinalComplex, "__init__",
                          "brs.LongitudinalComplex")
        for attr in ("delta_tower", "koszul_homology"):
            self._span_function(brs, attr, f"brs.{attr}")
        weight_complex = young.weight_complex
        hits_before = [0]

        def weight_complex_pre(args):
            hits_before[0] = weight_complex.cache_info().hits

        def weight_complex_post(args, out):
            if weight_complex.cache_info().hits > hits_before[0]:
                c("young.weight_complex_cache_hits", 1)

        self._span_function(young, "weight_complex", "young.weight_complex",
                            weight_complex_pre, weight_complex_post)
        self.check_coverage()

    def _mark_used(self, cls, attr):
        orig = cls.__dict__[attr]
        tracer = self

        def wrapper(self, *args):
            if (tracer.active and getattr(self, "_perfbench_traced", False)
                    and not getattr(self, "_perfbench_used", False)):
                self._perfbench_used = True
                tracer.counts["linalg.quotients_used"] += 1
            return orig(self, *args)

        self._patch(cls, attr, wrapper)

    def uninstall(self):
        """Put every original back, so that an untraced pass runs the
        package exactly as shipped."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def counts_add(self, metric, n):
        self.counts[metric] += n

    def max_bits(self, bits):
        if bits > self.counts["kernel.max_coeff_bits"]:
            self.counts["kernel.max_coeff_bits"] = bits

    def check_coverage(self):
        """Every package name that referred to a wrapped function now refers
        to its wrapper."""
        originals = {id(orig) for _, _, orig in self._patches}
        for mod in package_modules():
            for name, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"{mod.__name__}.{name} escaped the tracer")

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of the spans and counts recorded since reset."""
        out = dict(self.counts)
        out.update(dict.fromkeys(SELF_TIME.values(), 0.0))
        for span in self.spans:
            out[SELF_TIME[span[1]]] += span[6]
        builds = out["linalg.solver_builds"]
        solves = out["linalg.solve_calls"]
        quotients = out["linalg.quotient_builds"]
        out["linalg.solves_per_build"] = solves / builds if builds else 0.0
        out["linalg.solve_miss_ratio"] = (
            out.pop("linalg.solve_misses") / solves if solves else 0.0)
        out["linalg.quotient_used_ratio"] = (
            out.pop("linalg.quotients_used") / quotients if quotients else 0.0)
        return out

    def kernel_self_check(self):
        """kernel.row_echelon_calls against the count at the pure kernel;
        None when another backend does the elimination."""
        if kernel.BACKEND != "pure":
            return None
        return self.counts["kernel.row_echelon_calls"] == \
            self.py_row_echelon_calls


def rational_type():
    r = ncomplex.rat(1)
    return f"{type(r).__module__}.{type(r).__name__}"
