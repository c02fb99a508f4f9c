"""Benchmark of the ncomplex exact verifiers.

    python3 perfbench/run.py --workload gauge-cyclo --seed 1 --seconds 24 --trace 0

Runs one workload (see workloads.py and RECORD.md) in this process, one
verdict at a time, and checks every verdict and its dimension digest against
digests.json.  With ``--trace 0`` it makes the workload's fixed number of
passes over its pool and reports the end-to-end metrics; with
``--trace 1`` it alternates two untraced and two traced passes and reports
the per-layer metrics of the traced ones.  Every time is scaled to a fixed
host speed by the probes of hostspeed.py.  The last line of standard output
is the JSON result; a human-readable report and the environment come before
it.  Full results and the spans go to perfbench/out/.  Exits 1 if any
verdict fails or a check does not hold, 2 on bad usage or a missing package
source.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
IMPORTS = 3  # fresh imports of the package per pass, for setup_s

UNIT_SUFFIXES = (("_ms", "ms"), ("_mb", "MiB"), ("_s", "s"),
                 ("_bits", "bits"), ("_ratio", "ratio"), ("_per_build", "ratio"))


def unit(metric):
    return next((u for suffix, u in UNIT_SUFFIXES if metric.endswith(suffix)),
                "count")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "ncomplex" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'ncomplex'}")
    sys.path.insert(0, str(SRC))
    import ncomplex

    if Path(ncomplex.__file__).resolve().parent != SRC / "ncomplex":
        die(f"imported ncomplex from {ncomplex.__file__}")
    return ncomplex


def package_modules(ncomplex):
    """Every module of the package (the compiled kernel only if built)."""
    return [importlib.import_module(f"ncomplex.{info.name}")
            for info in pkgutil.iter_modules(ncomplex.__path__)
            if not info.name.startswith("_speedups")]


def import_fresh():
    """Import the package and every module of it anew, as a fresh
    interpreter would (from the bytecode cache), then put the modules in use
    back.  The new modules are dropped; the run keeps using the old ones."""
    in_use = {n: m for n, m in sys.modules.items()
              if n == "ncomplex" or n.startswith("ncomplex.")}
    for name in in_use:
        del sys.modules[name]
    try:
        package_modules(importlib.import_module("ncomplex"))
    finally:
        for name in [n for n in sys.modules
                     if n == "ncomplex" or n.startswith("ncomplex.")]:
            del sys.modules[name]
        sys.modules.update(in_use)


def package_caches(ncomplex):
    """Every lru_cache of the package; cleared before each pass so that each
    pass starts as cold as a fresh interpreter."""
    caches = {}
    for mod in package_modules(ncomplex):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                caches[id(value)] = value
    return list(caches.values())


def canonical(obj):
    """JSON-able form with a fixed order: dicts become sorted pairs."""
    if isinstance(obj, dict):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        return sorted(items, key=repr)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def digest(dims):
    text = json.dumps(canonical(dims), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(wl, order, caches, clock, tracer=None):
    """Set up afresh (import the package IMPORTS times, generate the pool),
    then run every verdict once.  Every time is the clock's scaled time (see
    hostspeed.py); the raw time is kept too."""
    for c in caches:
        c.cache_clear()
    gc.collect()
    raw, scaled = clock.mark()
    imports = []
    for _ in range(IMPORTS):
        raw0, scaled0 = raw, scaled
        import_fresh()
        raw, scaled = clock.mark()
        imports.append((raw - raw0, scaled - scaled0))
    raw0, scaled0 = raw, scaled
    instances = [wl.generate(i) for i in order]
    raw, scaled = clock.mark()
    generate, generate_scaled = raw - raw0, scaled - scaled0
    outcomes = []
    for i, inst in zip(order, instances):
        if tracer:
            tracer.verdict = i
            tracer.active = True
            frame = tracer.push("acceptance.verdict")
        try:
            ok, dims = wl.verdict(inst)
            error = None
        except Exception as exc:  # a raising verdict is a failed verdict
            ok, dims, error = False, None, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.pop(frame)
            tracer.active = False
        raw0, scaled0 = raw, scaled
        raw, scaled = clock.mark()
        outcomes.append((i, ok, dims, error, raw - raw0, scaled - scaled0))
    verdicts = [{"index": i, "ok": ok, "raw_s": raw_s, "seconds": seconds,
                 "error": error, "digest": None if error else digest(dims)}
                for i, ok, dims, error, raw_s, seconds in outcomes]
    return {"import_s": [t for _, t in imports],
            "raw_import_s": [t for t, _ in imports],
            "generate_s": generate_scaled, "raw_generate_s": generate,
            "verdicts": verdicts,
            "wall_s": sum(v["seconds"] for v in verdicts),
            "raw_wall_s": sum(v["raw_s"] for v in verdicts)}


def untraced_passes(wl, order, caches, clock, seconds):
    """The workload's fixed number of passes for ``seconds`` (see
    Workload.passes): it depends on nothing the code under test does."""
    return [run_pass(wl, order, caches, clock)
            for _ in range(wl.passes(seconds))]


def traced_passes(wl, order, caches, clock, layers):
    """Two untraced and two traced passes, alternating, so that host drift
    hits both sides of trace.overhead_ratio alike.  The tracer reads the
    clock's time without its probes, so they are charged to no layer."""
    tracer = layers.Tracer(now=clock.work_time)
    passes, traced = [], []
    for _ in range(2):
        passes.append(run_pass(wl, order, caches, clock))
        tracer.reset()
        tracer.install()
        p = run_pass(wl, order, caches, clock, tracer)
        tracer.uninstall()
        p["layers"] = tracer.layer_metrics()
        p["kernel_self_check"] = tracer.kernel_self_check()
        p["spans"] = tracer.spans
        traced.append(p)
    return passes, traced


def problem(v, expected):
    if v["error"]:
        return f"instance {v['index']} raised {v['error']}"
    if not v["ok"]:
        return f"instance {v['index']} returned ok: False"
    if v["digest"] != expected[v["index"]]:
        return (f"instance {v['index']} dimension digest {v['digest']} != "
                f"recorded {expected[v['index']]}")
    return None


def trace_checks(traced):
    checks = []
    a, b = (p["layers"] for p in traced)
    moved = [m for m in a if not m.endswith("_s") and a[m] != b[m]]
    if moved:
        checks.append(f"counts differ between the traced passes: {moved}")
    if any(p["kernel_self_check"] is False for p in traced):
        checks.append("kernel.row_echelon_calls differs from the count at "
                      "_kernel_py.row_echelon")
    return checks


def tail(values):
    """Value at the highest percentile with at least ten values beyond it,
    and that percentile; the maximum when there are fewer than twenty, where
    that percentile would fall below the median."""
    v = sorted(values)
    n = len(v)
    if n < 20:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes):
    """Medians over the passes.  verdict_p50_ms is the median over the pool
    of each instance's median time, so that a gap in the pool's costs at its
    middle cannot make it jump; the tail pools every verdict of every pass.
    setup_s adds the median of every fresh import of the run to the median
    pool generation."""
    times = [v["seconds"] for p in passes for v in p["verdicts"]]
    per_instance = {}
    for p in passes:
        for v in p["verdicts"]:
            per_instance.setdefault(v["index"], []).append(v["seconds"])
    tail_s, tail_pct = tail(times)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "verdict_p50_ms": 1000 * statistics.median(
            statistics.median(ts) for ts in per_instance.values()),
        "verdict_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(t for p in passes for t in p["import_s"])
        + statistics.median(p["generate_s"] for p in passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"tail_percentile": tail_pct, "tail_samples": len(times)}


def per_layer(traced, untraced):
    """Counts of the first traced pass (both are equal, or a check fails);
    times are the median of the two passes, each scaled by its pass's ratio
    of scaled to raw verdict time.  The overhead compares the summed scaled
    verdict times of the traced and the untraced passes of one run."""
    first = traced[0]["layers"]
    metrics = {m: (statistics.median(p["layers"][m] * p["wall_s"]
                                     / p["raw_wall_s"] for p in traced)
                   if m.endswith("_s") else v)
               for m, v in first.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced))
    return metrics


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(ncomplex, layers):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "NCX_THREADS": os.environ.get("NCX_THREADS", "unset"),
        "kernel_backend": ncomplex.kernel.BACKEND,
        "rational_type": layers.rational_type(),
        "git_commit": git_commit(),
    }


def write_out(stem, result, traced):
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if traced:
        with gzip.open(OUT / f"{stem}-spans.csv.gz", "wt",
                       compresslevel=1) as fh:
            fh.write("pass,id,name,parent,verdict,start,end,self\n")
            for k, p in enumerate(traced):
                fh.writelines("%d,%d,%s,%s,%s,%.9f,%.9f,%.9f\n" % (k, *span)
                              for span in p["spans"])


def main():
    args = parse_args()
    clock = hostspeed.Clock()
    clock.start(since=T_START)
    try:
        return run(args, clock)
    finally:
        clock.stop()


def run(args, clock):
    ncomplex = import_package()
    import layers
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        die(f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}")
    expected = json.loads(DIGESTS.read_text())[wl.name]
    caches = package_caches(ncomplex)
    order = wl.order(args.seed)
    # interpreter start to the first pass, recorded but not a metric: once
    # per run it is too noisy, and setup_s repeats its package part
    first_raw, first_scaled = clock.mark()

    if args.trace:
        passes, traced = traced_passes(wl, order, caches, clock, layers)
    else:
        passes = untraced_passes(wl, order, caches, clock, args.seconds)
        traced = []
    verdicts = [v for p in passes + traced for v in p["verdicts"]]
    failures = [msg for msg in (problem(v, expected) for v in verdicts)
                if msg]
    checks = trace_checks(traced) if traced else []
    attempted, failed = len(verdicts), len(failures)
    correct = failed == 0 and not checks
    e2e, tail_info = end_to_end(passes)
    metrics = per_layer(traced, passes) if traced else e2e

    env = environment(ncomplex, layers)
    reported = {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()}
    write_out(f"{wl.name}-seed{args.seed}-trace{args.trace}", {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "pool": wl.pool, "order_shuffled": wl.seeded,
        "passes": len(passes), "traced_passes": len(traced),
        **tail_info, "fail_ratio": failed / attempted,
        "failures": failures[:20], "checks": checks,
        "metrics": reported, "end_to_end": e2e,
        "first_setup_s": first_scaled, "first_raw_setup_s": first_raw,
        "pass_import_s": [p["import_s"] for p in passes + traced],
        "pass_raw_import_s": [p["raw_import_s"] for p in passes + traced],
        "pass_generate_s": [p["generate_s"] for p in passes + traced],
        "pass_raw_generate_s": [p["raw_generate_s"] for p in passes + traced],
        "pass_wall_s": [p["wall_s"] for p in passes + traced],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes + traced],
        "pass_verdict_s": [
            [v["seconds"] for v in sorted(p["verdicts"],
                                          key=lambda v: v["index"])]
            for p in passes + traced],
        "pass_raw_verdict_s": [
            [v["raw_s"] for v in sorted(p["verdicts"],
                                        key=lambda v: v["index"])]
            for p in passes + traced],
    }, traced)

    print(f"workload {wl.name}: {wl.why}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    print(f"  passes: {len(passes)} untraced, {len(traced)} traced; pool "
          f"{wl.pool}, order {'shuffled by --seed' if wl.seeded else 'fixed'}")
    for m, v in metrics.items():
        print(f"  {m}: {v if isinstance(v, int) else f'{v:.6g}'} {unit(m)}")
    if not traced:
        print(f"  verdict_tail_ms is at percentile "
              f"{tail_info['tail_percentile']:.1f} of "
              f"{tail_info['tail_samples']} verdict times")
    raw = sum(p["raw_wall_s"] for p in passes)
    print(f"  host speed: the verdicts took {raw:.6g} s unscaled, "
          f"{sum(p['wall_s'] for p in passes) / raw:.3f} of that scaled")
    print(f"  fail_ratio: {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} verdicts)")
    for line in failures[:20] + checks:
        print(f"  FAIL {line}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
