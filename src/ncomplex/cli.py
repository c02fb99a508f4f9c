"""The ncx command line: reproducible verification runs over JSON inputs.

Each handler loads its input, calls the verdict it shares with its
acceptance criterion and returns (report, witness); ``main`` alone turns the
report into an exit code.  Exit codes: 0 = all assertions passed, 1 = a
verified mathematical failure (the report says ``"ok": false``, and the
failing instance is written as the witness next to the report; no command
replays it yet), 2 = usage or input errors (malformed JSON, window
violations, a malformed NCX_THREADS), 3 = internal error (a broken invariant
of ncomplex itself, raised as ``AssertionError``).  A reader that closes
stdout early drops the rest of the output, not the exit code."""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import acceptance, brs, ndiff
from .acceptance import UsageError
from .cosimplicial import AlgebraData, BimoduleData, hochschild, ordinary_cohomology_dims
from .fields import QQ, check_keys
from .gauge import GaugeInstance, two_particle_study
from .graded import WindowError
from .linalg import _int_key, _is_index
from .young import potential_solve, random_divergence_free

SCHEMA_VERSION = 1


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}")


class _Parser(argparse.ArgumentParser):
    """Parser refusals are one ``ncx:`` line and exit 2, as a UsageError is."""

    def error(self, message):
        self.exit(2, f"ncx: {message}\n")

    def add_argument(self, *names, **kw):
        if hasattr(kw.get("type"), "lo"):
            kw.setdefault("help", f"at least {kw['type'].lo}")
        return super().add_argument(*names, **kw)


def _at_least(lo):
    """An argparse type: an int of at least lo (an empty range checks nothing)."""

    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__, parse.lo = "int", lo  # "invalid int value", as type=int
    return parse


def _criteria(text):
    """An argparse type: comma-separated criterion numbers, or None if none."""
    count = len(acceptance.ALL_CRITERIA)
    parts = [x.strip() for x in text.split(",")] if text else []
    if not all(x.isdecimal() and 1 <= int(x) <= count for x in parts):
        raise argparse.ArgumentTypeError(f"must list criteria 1-{count}, got {text!r}")
    return {int(x) for x in parts} or None


def _momentum(text):
    """An argparse type: a four-momentum, four comma-separated ints."""
    try:
        p = tuple(int(x) for x in text.split(","))
    except ValueError:
        p = ()
    if len(p) != 4:
        raise argparse.ArgumentTypeError(
            f"must be four comma-separated ints, got {text!r}")
    return p


def _drop_stdout():
    """Point stdout at devnull once its reader has closed it (as ``| head``
    does): what is still buffered and every later write go nowhere, so
    neither the report nor the flush at exit raises again, and the exit
    code stays the verdict's."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def emit(report, fmt="text"):
    """Write the report to stdout; ``csv`` needs a report with a table,
    which ``main`` makes sure of before the command runs."""
    out = sys.stdout
    report = {"schema_version": SCHEMA_VERSION, **report}
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, default=str) + "\n")
        return
    if fmt == "csv":
        header = report.get("table_header")
        if header:
            out.write(",".join(map(str, header)) + "\n")
        for row in report["table"]:
            out.write(",".join(map(str, row)) + "\n")
        return
    # text: aligned table when present, indented key/value otherwise
    table = report.pop("table", None)
    header = report.pop("table_header", None)

    def render(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj, key=str):
                v = obj[k]
                if isinstance(v, (dict, list)) and v:
                    out.write(f"{pad}{k}:\n")
                    render(v, indent + 1)
                else:
                    out.write(f"{pad}{k}: {v}\n")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    render(v, indent + 1)
                else:
                    out.write(f"{pad}- {v}\n")

    render(report)
    if table is not None:
        rows = [list(map(str, header))] if header else []
        rows += [list(map(str, r)) for r in table]
        if rows:
            widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
            for r in rows:
                out.write("  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")


def _write_witness(command, witness):
    path = f"ncx-failure-{command}.json"
    with open(path, "w") as fh:
        json.dump({"schema_version": SCHEMA_VERSION, "command": command,
                   "witness": witness}, fh, sort_keys=True, default=str)
    return path


# -- subcommand handlers: each returns (report, witness) --------------------------


def cmd_homology(args):
    E = ndiff.NDiffModule.from_json(_load_json(args.module))
    H = ndiff.homology(E)
    table = [[m, s.dim_Z, s.dim_B, s.dim_H] for m, s in sorted(H.slots.items())]
    return {
        "N": E.N, "dim": E.dim,
        "table_header": ["m", "dim_Z", "dim_B", "dim_H"],
        "table": table,
        "dims": {str(m): s.dim_H for m, s in H.slots.items()},
    }, None


def cmd_multiplicities(args):
    E = ndiff.NDiffModule.from_json(_load_json(args.module))
    return acceptance.prop4_verdict(E), E.to_json()


def cmd_hexagon(args):
    if (args.ell is None) != (args.m is None):
        given, missing = ("--ell", "--m") if args.m is None else ("--m", "--ell")
        raise UsageError(f"{given} needs {missing}; pass both, or neither for every hexagon")
    E = ndiff.NDiffModule.from_json(_load_json(args.module))
    if args.ell is not None and args.ell + args.m > E.N - 1:
        raise UsageError(f"--ell + --m must be at most N - 1 = {E.N - 1}, "
                         f"got {args.ell + args.m}")
    if args.ell is not None:
        return ndiff.hexagon_check(E, args.ell, args.m), E.to_json()
    return acceptance.hexagon_verdict(E), E.to_json()


def cmd_ses(args):
    obj = _load_json(args.ses)
    ses = ndiff.ShortExactSequence.from_json(obj)
    try:
        ses.validate()
    except ValueError as exc:
        raise UsageError(f"input is not a short exact sequence: {exc}")
    return acceptance.ses_verdict(ses), obj


def cmd_cosimplicial(args):
    A = AlgebraData.from_json(_load_json(args.algebra))
    E = hochschild(A, BimoduleData.regular(A), args.n_max)
    dims = ordinary_cohomology_dims(E, args.n_max - 1)
    return {
        "levels": E.dims,
        "hochschild_cohomology": {str(k): v for k, v in dims.items()},
        "relations": "validated",
    }, None


def cmd_theorem2(args):
    if args.window < args.N:  # one full period
        raise UsageError(f"--window must be at least --N = {args.N}, got {args.window}")
    obj = _load_json(args.algebra)
    ok, details = acceptance.theorem2_verdict(
        AlgebraData.from_json(obj), args.N, args.window)
    return ({"ok": ok, "compared": details["compared"], "ordinary": details["ordinary"]},
            {"algebra": obj, "N": args.N, "window": args.window,
             "mismatches": details["mismatches"]})


def cmd_prop7(args):
    obj = _load_json(args.algebra)
    rep = acceptance.prop7_verdict(AlgebraData.from_json(obj), args.N, args.window)
    return ({"ok": rep.ok, "details": rep.details},
            {"algebra": obj, "N": args.N, "window": args.window})


def cmd_poincare(args):
    if args.k > args.N - 1:
        raise UsageError(f"--k must be at most N-1 = {args.N - 1}, got {args.k}")
    return (acceptance.poincare_verdict(args.N, args.D, args.k, args.wmax),
            {"N": args.N, "D": args.D, "k": args.k, "wmax": args.wmax})


def cmd_spin_seq(args):
    # exactness is checked at degrees S and 2S, which a weight w reaches only
    # if w >= 2S; for S = 2 the same bound keeps d^2's comparison with the
    # curvature operator from Omega^2 to Omega^4 nonempty
    if args.wmax < 2 * args.S:
        raise UsageError(f"--wmax must be at least 2S = {2 * args.S}, got {args.wmax}")
    return (acceptance.spin_sequence_verdict(args.S, args.D, args.wmax),
            {"S": args.S, "D": args.D, "wmax": args.wmax})


def cmd_potential(args):
    if args.tensor:
        obj = _load_json(args.tensor)
        if not (isinstance(obj, dict) and isinstance(obj.get("T"), dict)
                and _is_index(obj.get("degree"))):
            raise ValueError(
                "a tensor must be a JSON object with an object T and an int degree >= 0"
            )
        check_keys(obj, "a tensor", (), ("T", "degree"))
        T = {}
        for key, poly in obj["T"].items():
            if not (isinstance(poly, dict) and all(isinstance(v, str) for v in poly.values())):
                raise ValueError(f"T[{key!r}] must map exponent keys to scalar strings")
            T[_int_key(key, (3, 3))] = {
                _int_key(mk, (None,) * 3): QQ.parse(vs) for mk, vs in poly.items()
            }
        w = obj["degree"]
        out_data = potential_solve(T, w)
    else:
        rng = random.Random(args.seed)
        T = random_divergence_free(rng)
        out_data = potential_solve(T, 2)
    R_json = {
        ",".join(map(str, key)): {
            ",".join(map(str, m)): str(v) for m, v in poly.items()
        }
        for key, poly in out_data["R"].items()
    }
    return {"ok": True, "constant": out_data["constant"], "R": R_json}, None


def cmd_brs(args):
    if args.example and args.system:
        raise UsageError(f"{args.system} and --example {args.example} conflict: pass one")
    if args.example:
        system = {
            "abelian": brs.abelian_system,
            "nonabelian": brs.twisted_nonabelian_system,
            "quadratic": brs.quadratic_toy_system,
        }[args.example]()
    else:
        if not args.system:
            raise UsageError("pass a system JSON or --example")
        system = brs.PolyConstraintSystem.from_json(_load_json(args.system))
    try:
        return brs.theorem4_verify(system, deg_max=args.deg_max), system.to_json()
    except WindowError as exc:
        raise UsageError(f"window too small: {exc}")


def cmd_gauge_ext(args):
    if args.instance == "verify":
        # documented alias: `ncx gauge-ext verify --suite random ...`
        args.instance = None
        if not args.suite:
            args.suite = "random"
    if args.suite and args.instance:
        raise UsageError(f"{args.instance} and --suite {args.suite} conflict: pass one")
    if args.suite == "random":
        failures = acceptance.pooled_witnesses(
            acceptance._theorem5_worker, "gauge", args.seed, args.trials,
            args.hmax)
        return ({"suite": "random", "trials": args.trials,
                 "failures": len(failures), "ok": not failures},
                failures[0] if failures else None)
    if not args.instance:
        raise UsageError("pass an instance JSON or --suite random")
    G = GaugeInstance.from_json(_load_json(args.instance))
    return acceptance.theorem5_verdict(G), G.to_json()


def cmd_spin_example(args):
    ok, rep = acceptance.spin_complex_verdict(args.spin, args.p)
    out = {"spin": args.spin, "ok": ok, **rep,
           "H_dims": {str(k): v for k, v in rep["H_dims"].items()}}
    if args.two_particle:
        two = two_particle_study(args.p, args.two_particle)
        out["two_particle"] = two
        out["ok"] = out["ok"] and two["ok"]
    return out, {"spin": args.spin, "p": args.p, "two_particle": args.two_particle}


def cmd_selftest(args):
    reports = acceptance.run_all(seed=args.seed, numbers=args.only)
    if args.format == "text":
        try:
            for rep in reports:
                print(rep.line())
        except BrokenPipeError:
            _drop_stdout()
    bad = [r.witness for r in reports if not r.ok]
    return ({"ok": not bad, "seed": args.seed,
             "criteria": [r.to_json() for r in reports]},
            bad[0] if bad else None)


def build_parser():
    # subparsers leave --format unset unless given: one before the command holds
    formats = ("text", "json", "csv")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=formats, default=argparse.SUPPRESS)
    ap = _Parser(prog="ncx", description="Exact verification workbench for N-complexes")
    ap.add_argument("--format", choices=formats, default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("homology", help="generalized homology of a module")
    s.add_argument("module")
    s.set_defaults(fn=cmd_homology, table=True)

    s = add_parser("multiplicities", help="Jordan multiplicities + formula check")
    s.add_argument("module")
    s.set_defaults(fn=cmd_multiplicities)

    s = add_parser("hexagon", help="exactness of the homology hexagons")
    s.add_argument("module")
    s.add_argument("--ell", type=_at_least(1))
    s.add_argument("--m", type=_at_least(1))
    s.set_defaults(fn=cmd_hexagon)

    s = add_parser("ses", help="short exact sequence checks")
    s.add_argument("ses")
    s.set_defaults(fn=cmd_ses)

    s = add_parser("cosimplicial", help="Hochschild cosimplicial module of an algebra")
    s.add_argument("algebra")
    # level n_max is needed for the cohomology of degree n_max - 1
    s.add_argument("--n-max", type=_at_least(1), default=4)
    s.set_defaults(fn=cmd_cosimplicial)

    s = add_parser("theorem2", help="generalized vs ordinary cohomology pattern")
    s.add_argument("algebra")
    s.add_argument("--N", type=_at_least(2), default=3)
    s.add_argument("--window", type=int, default=6)
    s.set_defaults(fn=cmd_theorem2)

    s = add_parser("prop7", help="acyclicity of (T(A), d_1) and Omega_q(A)")
    s.add_argument("algebra")
    s.add_argument("--N", type=_at_least(2), default=3)
    s.add_argument("--window", type=_at_least(0), default=3)
    s.set_defaults(fn=cmd_prop7)

    s = add_parser("poincare", help="generalized Poincare lemma per weight")
    s.add_argument("--N", type=_at_least(2), required=True)
    s.add_argument("--D", type=_at_least(1), required=True)
    s.add_argument("--k", type=_at_least(1), required=True)
    s.add_argument("--wmax", type=_at_least(0), default=5)
    s.set_defaults(fn=cmd_poincare, table=True)

    s = add_parser("spin-seq", help="higher-spin sequence exactness")
    s.add_argument("--S", type=_at_least(1), required=True)
    s.add_argument("--D", type=_at_least(2), default=4)  # top degree (N-1)D = S D >= 2S
    s.add_argument("--wmax", type=int, default=5)
    s.set_defaults(fn=cmd_spin_seq)

    s = add_parser("potential", help="divergence-free 2-tensor potential")
    s.add_argument("tensor", nargs="?")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_potential)

    s = add_parser("brs", help="BRS tower and Theorem 4 comparison")
    s.add_argument("system", nargs="?")
    s.add_argument("--example", choices=("abelian", "nonabelian", "quadratic"))
    s.add_argument("--deg-max", type=_at_least(0), default=5)
    s.set_defaults(fn=cmd_brs)

    s = add_parser("gauge-ext", help="Theorem 5 verification")
    s.add_argument("instance", nargs="?")
    s.add_argument("--suite", choices=("random",))
    s.add_argument("--trials", type=_at_least(1), default=500)
    s.add_argument("--seed", type=int, default=42)
    # random_gauge_instance draws dim H from 3..hmax
    s.add_argument("--hmax", type=_at_least(3), default=20)
    s.set_defaults(fn=cmd_gauge_ext)

    s = add_parser("spin-example", help="spin-1/2 one-particle complexes")
    s.add_argument("--spin", type=int, choices=(1, 2), default=1)
    s.add_argument("--p", type=_momentum, default=(1, 1, 0, 0))
    s.add_argument("--two-particle", type=_momentum, metavar="P2")
    s.set_defaults(fn=cmd_spin_example)

    s = add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--only", type=_criteria, help="comma-separated criterion numbers")
    s.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.format == "csv" and not getattr(args, "table", False):
        print(f"ncx: --format csv needs a report with a table (homology, "
              f"poincare); {args.command} has none", file=sys.stderr)
        return 2
    try:
        report, witness = args.fn(args)
    except UsageError as exc:
        print(f"ncx: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(f"ncx: window violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ncx: invalid input: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"ncx: internal error: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.command, **report}
    try:
        emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    if report.get("ok", True):
        return 0
    path = _write_witness(args.command, witness)
    print(f"ncx: FAILED; witness written to {path}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
