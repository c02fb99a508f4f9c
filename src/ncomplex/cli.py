"""The ncx command line: reproducible verification runs over JSON inputs.

Exit codes: 0 = all assertions passed, 1 = a verified mathematical failure
(the first failing instance is written as the witness next to the report; no
command replays it yet), 2 = usage or input errors (malformed JSON, window
violations, a malformed NCX_THREADS), 3 = internal error (a broken invariant
of ncomplex itself, raised as ``AssertionError``)."""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .fields import QQ, check_keys, make_cyclotomic
from .graded import WindowError
from .linalg import _int_key, _is_index

SCHEMA_VERSION = 1


class MathFailure(Exception):
    def __init__(self, report, witness=None):
        super().__init__("verified mathematical failure")
        self.report = report
        self.witness = witness or {}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}")


class UsageError(Exception):
    pass


def _require_at_least(args, option, lo):
    """Reject the option (its argparse dest, e.g. ``n_max`` for ``--n-max``)
    below lo: a check over an empty range would pass without checking
    anything."""
    value = getattr(args, option)
    if value < lo:
        flag = "--" + option.replace("_", "-")
        raise UsageError(f"{flag} must be at least {lo}, got {value}")


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


# -- subcommand handlers ---------------------------------------------------------


def cmd_homology(args):
    from .ndiff import NDiffModule, homology

    E = NDiffModule.from_json(_load_json(args.module))
    H = homology(E)
    table = [[m, s.dim_Z, s.dim_B, s.dim_H] for m, s in sorted(H.slots.items())]
    return {
        "command": "homology", "N": E.N, "dim": E.dim,
        "table_header": ["m", "dim_Z", "dim_B", "dim_H"],
        "table": table,
        "dims": {str(m): s.dim_H for m, s in H.slots.items()},
    }


def cmd_multiplicities(args):
    from .ndiff import NDiffModule, multiplicities, proposition4_check

    E = NDiffModule.from_json(_load_json(args.module))
    rep = proposition4_check(E)
    out = {
        "command": "multiplicities", "ok": rep["ok"],
        "multiplicities": {str(k): v for k, v in rep["multiplicities"].items()},
        "dims": {str(k): v for k, v in rep["dims"].items()},
    }
    if not rep["ok"]:
        raise MathFailure(out, witness=E.to_json())
    return out


def cmd_hexagon(args):
    from .ndiff import NDiffModule, all_hexagons_check, hexagon_check

    if (args.ell is None) != (args.m is None):
        given, missing = ("--ell", "--m") if args.m is None else ("--m", "--ell")
        raise UsageError(f"{given} needs {missing}; pass both, or neither for every hexagon")
    E = NDiffModule.from_json(_load_json(args.module))
    if args.ell is not None:
        rep = hexagon_check(E, args.ell, args.m)
        out = {"command": "hexagon", **rep}
    else:
        rep = all_hexagons_check(E)
        out = {"command": "hexagon", "ok": rep["ok"],
               "checked": len(rep["hexagons"])}
    if not rep["ok"]:
        raise MathFailure(out, witness=E.to_json())
    return out


def cmd_ses(args):
    from .ndiff import ShortExactSequence, connecting_well_defined, ses_hexagon_check

    obj = _load_json(args.ses)
    ses = ShortExactSequence.from_json(obj)
    try:
        ses.validate()
    except ValueError as exc:
        raise UsageError(f"input is not a short exact sequence: {exc}")
    rep = ses_hexagon_check(ses)
    well = all(connecting_well_defined(ses, m) for m in range(1, ses.E.N))
    out = {"command": "ses", "hexagons_ok": rep["ok"], "well_defined": well,
           "ok": rep["ok"] and well}
    if not out["ok"]:
        raise MathFailure(out, witness=obj)
    return out


def cmd_cosimplicial(args):
    from .cosimplicial import (
        AlgebraData, BimoduleData, hochschild, ordinary_cohomology_dims,
    )

    A = AlgebraData.from_json(_load_json(args.algebra))
    # level n_max is needed for the cohomology of degree n_max - 1
    _require_at_least(args, "n_max", 1)
    E = hochschild(A, BimoduleData.regular(A), args.n_max)
    dims = ordinary_cohomology_dims(E, args.n_max - 1)
    return {
        "command": "cosimplicial", "levels": E.dims,
        "hochschild_cohomology": {str(k): v for k, v in dims.items()},
        "relations": "validated",
    }


def cmd_theorem2(args):
    from .cosimplicial import AlgebraData, BimoduleData, hochschild, theorem2_verify

    A = AlgebraData.from_json(_load_json(args.algebra))
    f = A.field
    if f.kind != "cyclotomic":
        raise UsageError("theorem2 needs a cyclotomic base field carrying q")
    _require_at_least(args, "N", 2)
    q = f.pow(f.zeta(), f.M // args.N) if f.M % args.N == 0 else None
    if q is None:
        raise UsageError(f"field Q(zeta_{f.M}) contains no primitive {args.N}-th root")
    E = hochschild(A, BimoduleData.regular(A), args.window)
    rep = theorem2_verify(E, q, args.N, args.window)
    out = {"command": "theorem2", "ok": rep.ok,
           "compared": rep.details["compared"],
           "ordinary": {str(k): v for k, v in rep.details["ordinary"].items()}}
    if not rep.ok:
        raise MathFailure(out, witness={"mismatches": rep.details["mismatches"]})
    return out


def cmd_prop7(args):
    from .cosimplicial import AlgebraData, prop7_verify

    A = AlgebraData.from_json(_load_json(args.algebra))
    f = A.field
    _require_at_least(args, "N", 2)
    _require_at_least(args, "window", 0)
    if f.kind != "cyclotomic" or f.M % args.N:
        raise UsageError("field must contain a primitive N-th root of unity")
    q = f.pow(f.zeta(), f.M // args.N)
    rep = prop7_verify(A, q, args.N, args.window)
    out = {"command": "prop7", "ok": rep.ok, "details": rep.details}
    if not rep.ok:
        raise MathFailure(out)
    return out


def cmd_poincare(args):
    from .young import poincare_verify

    _require_at_least(args, "wmax", 0)
    _require_at_least(args, "D", 1)
    _require_at_least(args, "k", 1)
    _require_at_least(args, "N", 2)
    if args.k > args.N - 1:
        raise UsageError(f"--k must be at most N-1 = {args.N - 1}, got {args.k}")
    rep = poincare_verify(args.N, args.D, args.k, args.wmax)
    table = [
        [key.split(",")[0][2:], key.split(",")[1][2:], dim]
        for key, dim in sorted(rep["dims"].items())
    ]
    out = {
        "command": "poincare", "ok": rep["ok"], "N": args.N, "D": args.D,
        "k": args.k, "w_max": args.wmax,
        "h0_total": rep["h0_total"],
        "h0_expected": rep["h0_expected_total"],
        "nonzero_offgrid": rep["nonzero_offgrid"],
        "table_header": ["w", "p", "dim_H"],
        "table": table,
    }
    if not rep["ok"]:
        raise MathFailure(out)
    return out


def cmd_spin_seq(args):
    from .young import spin2_middle_proportional, spin_sequence_check

    # exactness is checked at degrees S and 2S, which a weight w reaches
    # only if w >= 2S and the top degree (N-1)D = S D >= 2S; for S = 2 the
    # same bounds keep d^2's comparison with the curvature operator from
    # Omega^2 to Omega^4 nonempty
    _require_at_least(args, "S", 1)
    _require_at_least(args, "D", 2)
    _require_at_least(args, "wmax", 2 * args.S)
    rep = spin_sequence_check(args.S, args.D, args.wmax)
    out = {"command": "spin-seq", "ok": rep["ok"], "S": args.S, "D": args.D}
    if args.S == 2:
        prop = spin2_middle_proportional(args.D, args.wmax)
        out["d2_proportional"] = prop
        out["ok"] = out["ok"] and prop["ok"]
    if not out["ok"]:
        raise MathFailure(out)
    return out


def cmd_potential(args):
    import random

    from .young import potential_solve, random_divergence_free

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
    return {"command": "potential", "ok": True,
            "constant": out_data["constant"], "R": R_json}


def cmd_brs(args):
    from .brs import (
        PolyConstraintSystem, abelian_system, quadratic_toy_system,
        theorem4_verify, twisted_nonabelian_system,
    )

    _require_at_least(args, "deg_max", 0)
    if args.example and args.system:
        raise UsageError(f"{args.system} and --example {args.example} conflict: pass one")
    if args.example:
        system = {
            "abelian": abelian_system,
            "nonabelian": twisted_nonabelian_system,
            "quadratic": quadratic_toy_system,
        }[args.example]()
    else:
        if not args.system:
            raise UsageError("pass a system JSON or --example")
        system = PolyConstraintSystem.from_json(_load_json(args.system))
    try:
        rep = theorem4_verify(system, deg_max=args.deg_max)
    except WindowError as exc:
        raise UsageError(f"window too small: {exc}")
    out = {"command": "brs", "ok": rep["ok"], "details": rep["details"],
           "tower_orders": rep["tower_orders"]}
    if not rep["ok"]:
        raise MathFailure(out, witness=system.to_json())
    return out


def cmd_gauge_ext(args):
    from .gauge import GaugeInstance, theorem5_verify

    if args.instance == "verify":
        # documented alias: `ncx gauge-ext verify --suite random ...`
        args.instance = None
        if not args.suite:
            args.suite = "random"
    if args.suite and args.instance:
        raise UsageError(f"{args.instance} and --suite {args.suite} conflict: pass one")
    if args.suite == "random":
        _require_at_least(args, "trials", 1)
        # random_gauge_instance draws dim H from 3..hmax
        _require_at_least(args, "hmax", 3)
        failures = acceptance.pooled_witnesses(
            acceptance._theorem5_worker, "gauge", args.seed, args.trials,
            args.hmax)
        out = {"command": "gauge-ext", "suite": "random",
               "trials": args.trials, "failures": len(failures), "ok": not failures}
        if failures:
            raise MathFailure(out, witness=failures[0])
        return out
    if not args.instance:
        raise UsageError("pass an instance JSON or --suite random")
    G = GaugeInstance.from_json(_load_json(args.instance))
    rep = theorem5_verify(G)
    out = {"command": "gauge-ext", "ok": rep["ok"],
           "dims": {str(k): list(v) for k, v in rep["dims"].items()}}
    if not rep["ok"]:
        raise MathFailure(out, witness=G.to_json())
    return out


def cmd_spin_example(args):
    from .gauge import spin_complex_report, two_particle_study

    p = tuple(int(x) for x in args.p.split(","))
    f4 = make_cyclotomic(4)
    rep = spin_complex_report(args.spin, p, f4.zeta(), f4)
    ok = rep["hermitian"] and rep["H_dims"].get(0) == 2
    out = {"command": "spin-example", "spin": args.spin, "ok": ok, **{
        k: v for k, v in rep.items()
    }}
    out["H_dims"] = {str(k): v for k, v in rep["H_dims"].items()}
    if args.two_particle:
        two = two_particle_study(p, tuple(int(x) for x in args.two_particle.split(",")))
        out["two_particle"] = two
        out["ok"] = out["ok"] and two["ok"]
    if not out["ok"]:
        raise MathFailure(out)
    return out


def cmd_selftest(args):
    numbers = None
    if args.only:
        count = len(acceptance.ALL_CRITERIA)
        parts = [x.strip() for x in args.only.split(",")]
        if not all(x.isdecimal() and 1 <= int(x) <= count for x in parts):
            raise UsageError(f"--only must list criteria 1-{count}, got {args.only!r}")
        numbers = {int(x) for x in parts}
    reports = acceptance.run_all(seed=args.seed, numbers=numbers)
    if args.format == "text":
        for rep in reports:
            print(rep.line())
    ok = all(r.ok for r in reports)
    out = {"command": "selftest", "ok": ok, "seed": args.seed,
           "criteria": [r.to_json() for r in reports]}
    if not ok:
        first_bad = next(r for r in reports if not r.ok)
        raise MathFailure(out, witness=first_bad.witness)
    return out


def build_parser():
    # subparsers leave --format unset unless given: one before the command holds
    formats = ("text", "json", "csv")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=formats, default=argparse.SUPPRESS)
    ap = argparse.ArgumentParser(
        prog="ncx",
        description="Exact verification workbench for N-complexes",
    )
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
    s.add_argument("--ell", type=int)
    s.add_argument("--m", type=int)
    s.set_defaults(fn=cmd_hexagon)

    s = add_parser("ses", help="short exact sequence checks")
    s.add_argument("ses")
    s.set_defaults(fn=cmd_ses)

    s = add_parser("cosimplicial", help="Hochschild cosimplicial module of an algebra")
    s.add_argument("algebra")
    s.add_argument("--n-max", type=int, default=4)
    s.set_defaults(fn=cmd_cosimplicial)

    s = add_parser("theorem2", help="generalized vs ordinary cohomology pattern")
    s.add_argument("algebra")
    s.add_argument("--N", type=int, default=3)
    s.add_argument("--window", type=int, default=6)
    s.set_defaults(fn=cmd_theorem2)

    s = add_parser("prop7", help="acyclicity of (T(A), d_1) and Omega_q(A)")
    s.add_argument("algebra")
    s.add_argument("--N", type=int, default=3)
    s.add_argument("--window", type=int, default=3)
    s.set_defaults(fn=cmd_prop7)

    s = add_parser("poincare", help="generalized Poincare lemma per weight")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--D", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--wmax", type=int, default=5)
    s.set_defaults(fn=cmd_poincare, table=True)

    s = add_parser("spin-seq", help="higher-spin sequence exactness")
    s.add_argument("--S", type=int, required=True)
    s.add_argument("--D", type=int, default=4)
    s.add_argument("--wmax", type=int, default=5)
    s.set_defaults(fn=cmd_spin_seq)

    s = add_parser("potential", help="divergence-free 2-tensor potential")
    s.add_argument("tensor", nargs="?")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_potential)

    s = add_parser("brs", help="BRS tower and Theorem 4 comparison")
    s.add_argument("system", nargs="?")
    s.add_argument("--example", choices=("abelian", "nonabelian", "quadratic"))
    s.add_argument("--deg-max", type=int, default=5)
    s.set_defaults(fn=cmd_brs)

    s = add_parser("gauge-ext", help="Theorem 5 verification")
    s.add_argument("instance", nargs="?")
    s.add_argument("--suite", choices=("random",))
    s.add_argument("--trials", type=int, default=500)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--hmax", type=int, default=20)
    s.set_defaults(fn=cmd_gauge_ext)

    s = add_parser("spin-example", help="spin-1/2 one-particle complexes")
    s.add_argument("--spin", type=int, choices=(1, 2), default=1)
    s.add_argument("--p", default="1,1,0,0")
    s.add_argument("--two-particle", metavar="P2")
    s.set_defaults(fn=cmd_spin_example)

    s = add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--only", help="comma-separated criterion numbers")
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
        report = args.fn(args)
    except UsageError as exc:
        print(f"ncx: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(f"ncx: window violation: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ncx: invalid input: {exc}", file=sys.stderr)
        return 2
    except MathFailure as exc:
        emit(exc.report, args.format)
        path = _write_witness(args.command, exc.witness)
        print(f"ncx: FAILED; witness written to {path}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"ncx: internal error: {exc}", file=sys.stderr)
        return 3
    emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
