import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ncomplex
from ncomplex import acceptance, brs, cli, cosimplicial, gauge, ndiff, young
from ncomplex.cosimplicial import (
    AlgebraData,
    dual_numbers,
    group_algebra_cyclic,
)
from ncomplex.fields import QQ, Field, make_cyclotomic
from ncomplex.linalg import ExactMatrix
from ncomplex.ndiff import block_module
from helpers import from_int_rows, matrix_algebra, nonabelian_lie2


@pytest.fixture()
def module_file(tmp_path):
    E = block_module(QQ, 3, [3, 1])
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(E.to_json()))
    return str(path)


def _write_split_ses(path):
    """The split sequence 0 -> D_3 -> D_3 + D_1 + D_2 -> D_1 + D_2 -> 0."""
    E, F, G = (block_module(QQ, 3, sizes) for sizes in ([3], [3, 1, 2], [1, 2]))
    phi = from_int_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]], QQ)
    psi = from_int_rows(
        [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], QQ)
    path.write_text(json.dumps({
        "E": E.to_json(), "F": F.to_json(), "G": G.to_json(),
        "phi": phi.to_json(), "psi": psi.to_json()}))
    return str(path)


def test_ses_command(tmp_path, capsys):
    path = _write_split_ses(tmp_path / "ses.json")
    assert cli.main(["ses", path, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hexagons_ok"] and out["well_defined"]


def test_ses_witness_replays_through_ses(monkeypatch, tmp_path, capsys):
    """Criterion 3's witness is the whole sequence in ``ncx ses`` input form."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ndiff, "ses_hexagon_check", lambda ses: {"ok": False})
    witness = acceptance.pooled_witnesses(acceptance._ses_worker, "ses", 42, 1)[0]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    assert cli.main(["ses", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["hexagons_ok"] is False
    art = json.loads((tmp_path / "ncx-failure-ses.json").read_text())
    assert art["witness"] == witness


def test_homology_command(module_file, capsys):
    assert cli.main(["homology", module_file]) == 0
    out = capsys.readouterr().out
    assert "dim_H" in out


def test_json_output_roundtrips(module_file, capsys):
    assert cli.main(["homology", module_file, "--format", "json"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["schema_version"] == 1
    # parse -> re-emit identical
    assert json.dumps(obj, sort_keys=True, default=str) + "\n" == out


def test_multiplicities_command(module_file, capsys):
    assert cli.main(["multiplicities", module_file]) == 0
    assert "multiplicities" in capsys.readouterr().out


def test_hexagon_command(module_file):
    assert cli.main(["hexagon", module_file]) == 0
    assert cli.main(["hexagon", module_file, "--ell", "1", "--m", "1"]) == 0


def test_poincare_csv(capsys):
    assert cli.main(
        ["poincare", "--N", "3", "--D", "2", "--k", "1", "--wmax", "3",
         "--format", "csv"]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "w,p,dim_H"


def test_poincare_table_is_in_weight_order(capsys):
    """The rows of the table come in (w, p) order as integers, with the cells
    as before (w and p strings, dim_H an int): past weight 9 a sort of the
    "w=..,p=.." keys as strings put w = 10 before w = 2."""
    argv = ["poincare", "--N", "3", "--D", "3", "--k", "1", "--wmax", "10"]
    assert cli.main(argv + ["--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    keys = [(int(w), int(p)) for w, p, _ in rows]
    assert keys == sorted(keys) and keys[-1][0] == 10
    assert cli.main(argv + ["--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    assert table == [[w, p, int(dim)] for w, p, dim in rows]


def _place_format(fmt, placement, argv):
    return ["--format", fmt] + argv if placement == "before" else argv + ["--format", fmt]


@pytest.mark.parametrize("placement", ["before", "after"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_format_holds_before_and_after_the_command(fmt, placement, module_file,
                                                   capsys):
    """``--format`` is honoured on either side of the command: homology
    prints the asked format, and multiplicities, which has no table, prints
    JSON or refuses CSV with exit 2."""
    assert cli.main(_place_format(fmt, placement, ["homology", module_file])) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["command"] == "homology"
    else:
        assert out.splitlines()[0] == "m,dim_Z,dim_B,dim_H"
    code = cli.main(_place_format(fmt, placement, ["multiplicities", module_file]))
    out, err = capsys.readouterr()
    if fmt == "json":
        assert code == 0 and json.loads(out)["command"] == "multiplicities"
    else:
        assert code == 2 and out == "" and err.startswith("ncx: --format csv")


@pytest.mark.parametrize("argv", [
    ["multiplicities", "mod.json"], ["hexagon", "mod.json"],
    ["ses", "ses.json"], ["cosimplicial", "alg.json"],
    ["theorem2", "alg.json"], ["prop7", "alg.json"], ["spin-seq", "--S", "1"],
    ["potential"], ["brs", "--example", "abelian"],
    ["gauge-ext", "--suite", "random"], ["spin-example"], ["selftest"],
])
def test_csv_without_table_exits_2(argv, monkeypatch, tmp_path, capsys):
    """Only homology and poincare carry a table; any other command asked
    for CSV is refused before it runs, so a failing one writes no witness."""
    monkeypatch.chdir(tmp_path)
    ran = []

    def handler(args):
        ran.append(args.command)
        return {"ok": False}, {}

    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), handler)
    assert cli.main(argv + ["--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert not ran and out == ""
    assert err.count("\n") == 1 and err.startswith("ncx: --format csv")
    assert not list(tmp_path.iterdir())


def test_spin_example(capsys):
    assert cli.main(["spin-example", "--spin", "1"]) == 0
    assert cli.main(
        ["spin-example", "--spin", "2", "--two-particle", "1,0,1,0"]
    ) == 0


def test_brs_example():
    assert cli.main(["brs", "--example", "abelian", "--deg-max", "4"]) == 0


def test_selftest_single(capsys):
    assert cli.main(["selftest", "--only", "13"]) == 0
    assert "criterion 13 [PASS]" in capsys.readouterr().out


def _share_criterion_reports(monkeypatch, criterion_report):
    """Make ``ncx selftest --seed 42`` render the session's seed-42 criterion
    reports, so each criterion runs once in tier-1."""
    def shared(number):
        def crit(seed):
            assert seed == 42
            return criterion_report(number)
        return crit

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [
        shared(n) for n in range(1, len(acceptance.ALL_CRITERIA) + 1)])


def test_selftest_json_is_one_document(monkeypatch, capsys, criterion_report):
    _share_criterion_reports(monkeypatch, criterion_report)
    assert cli.main(["selftest", "--seed", "42", "--only", "1",
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and [c["number"] for c in report["criteria"]] == [1]


# sha256 of the JSON report of ``ncx selftest --seed 42 --only <criteria>``,
# with every ``elapsed*`` field removed and keys sorted.  Criteria 2 and 3
# were recorded before the connecting map and the elimination over Q ran on
# integer numerators; 4, 5, 6, 10, 12, 13 and 14 (graded homology, the
# filtered BRS cohomology and the gauge slots) before the homology slots and
# the filtered cohomology were merged into one routine each.
GOLDEN_SELFTEST = {
    "1,7,8,9": "4d2ad0550cc751262f3baeddfec5b6b89c98e3b1acdabe90cc9933af6d2448d5",
    "2,3": "5422017ec2468c3253f88544c17fe2808969868629195e28225790119b7b87f6",
    "4,5,6,10,12,13,14":
        "30ee99bbd2e85b6c4cb08d4d8be98ba149a5a0175f4635ef29434f11fe1e6e7c",
}


def _without_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _without_elapsed(v) for k, v in obj.items()
                if not k.startswith("elapsed")}
    if isinstance(obj, list):
        return [_without_elapsed(v) for v in obj]
    return obj


@pytest.mark.parametrize("only", sorted(GOLDEN_SELFTEST))
def test_selftest_report_is_pinned(only, monkeypatch, capsys,
                                   criterion_report):
    """The pinned sets hold every criterion but 11.  Their reports are the
    session's seed-42 runs that ``tests/test_acceptance.py`` checks, so each
    criterion runs once in tier-1; each must pass within its budget."""
    _share_criterion_reports(monkeypatch, criterion_report)
    assert cli.main(["selftest", "--seed", "42", "--only", only,
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for crit in report["criteria"]:
        assert crit["ok"], crit["witness"] or crit["details"]
        assert crit["elapsed_seconds"] < crit["budget_seconds"], (
            f"criterion {crit['number']} exceeded its budget")
    report = _without_elapsed(report)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_SELFTEST[only]


# sha256 of the stdout of ``ncx potential --seed <s> --format json`` and of
# ``ncx brs --example <e> --deg-max 8 --format json``, recorded before the
# spin-2 double dual, the polynomial derivative and the Koszul delta_0 were
# each written once.
GOLDEN_POTENTIAL = {
    0: "2fdca149d1380d62f87d7c4371097a0815eff8a210cca50acaa44a2ff3c5347c",
    1: "72060daff5c6d9c3b9cc86349cf3f6bd0e818edb0cd2865f2ff05cfbe28f9967",
    2: "5af98a49abaf3f83de1d67dda197410e662305b03e3c40c9e02eb669897ff71d",
    3: "ae66351fd6a81805cc6c8ee3e298f09de387a55d9dddd438ce2c284e8f50fedd",
}
GOLDEN_BRS = {
    "abelian": "68ccdee09acb911db5d2e0b0dddd8891f740ab2201bff40c1b6916028cf3f234",
    "nonabelian": "01db7da1dff6649890ddebb89f090015a7ba89c93c79bf9ac779c33ce723a397",
    "quadratic": "b6eaf1fba4b1a6955617d6ba2051f1c89158fa903293506e173fa8d5d6c1b8d5",
}


@pytest.mark.parametrize("argv,digest", [
    *[(["potential", "--seed", str(s)], d) for s, d in GOLDEN_POTENTIAL.items()],
    *[(["brs", "--example", e, "--deg-max", "8"], d) for e, d in GOLDEN_BRS.items()],
], ids=[*map(str, GOLDEN_POTENTIAL), *GOLDEN_BRS])
def test_polynomial_reports_are_pinned(argv, digest, capsys):
    assert cli.main([*argv, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_usage_error_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["homology", str(bad)]) == 2
    assert "ncx:" in capsys.readouterr().err


def test_usage_error_invalid_module(tmp_path):
    # identity is not nilpotent: input validation failure, exit 2
    bad = tmp_path / "bad_mod.json"
    bad.write_text(json.dumps({
        "N": 3,
        "field": {"kind": "rationals"},
        "d": {"rows": 2, "cols": 2, "field": {"kind": "rationals"},
              "entries": [[0, 0, "1"], [1, 1, "1"]]},
    }))
    assert cli.main(["homology", str(bad)]) == 2


@pytest.mark.parametrize("command", ["homology", "multiplicities", "hexagon", "ses"])
def test_non_nilpotent_input_exits_2(monkeypatch, tmp_path, capsys, command):
    """A module with d^3 != 0 is refused at load, alone or inside a
    sequence: exit 2 with one ncx: line naming the certificate, no
    traceback and no failure witness."""
    monkeypatch.chdir(tmp_path)
    mod = ndiff.NDiffModule(3, ExactMatrix.identity(2, QQ)).to_json()
    if command == "ses":
        one = ExactMatrix.identity(2, QQ).to_json()
        mod = {"E": mod, "F": mod, "G": mod, "phi": one, "psi": one}
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(mod))
    assert cli.main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncx: invalid input: d^3 != 0") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("ncx-failure-*.json"))


_Q = {"kind": "rationals"}
_Z3 = make_cyclotomic(3)
_LIE_Z3 = nonabelian_lie2(_Z3).to_json()


def _m2_with_swapped_pair(f):
    """M_2(k) with e_00 e_01 = e_01 moved to e_01 e_00: not associative."""
    obj = matrix_algebra(f, 2).to_json()
    for entry in obj["structure_constants"]:
        if entry[:2] == [0, 1]:
            entry[:2] = [1, 0]
    return obj


@pytest.mark.parametrize(
    "command,obj",
    [
        ("homology", {"N": 2, "field": _Q,
         "d": {"rows": 2, "cols": 2, "field": _Q, "entries": [[5, 7, "1"]]}}),
        ("homology", {"N": 2, "field": _Q,
         "d": {"rows": 2, "cols": 2, "field": _Q, "entries": [[0, 1, "1/0"]]}}),
        ("homology", {"N": 2, "field": _Q,
         "d": {"rows": 2, "cols": 2, "field": _Q,
               "entries": [[0, 1, "1"], [0, 1, "2"]]}}),
        ("homology", {"N": 2, "field": _Q}),
        ("homology", []),
        ("homology", {"N": "2", "field": _Q,
         "d": {"rows": 1, "cols": 1, "field": _Q, "entries": []}}),
        ("homology", {"N": 2, "field": _Q,
         "d": {"rows": 1, "cols": 1, "field": _Q, "entries": 5}}),
        ("homology", {"N": 3, "field": {},
         "d": {"rows": 1, "cols": 1, "field": _Q, "entries": []}}),
        ("ses", {}),
        ("cosimplicial", {}),
        ("gauge-ext", {}),
        ("brs", {}),
        ("brs", {"D": 2, "constraints": [],
                 "fields": [[{"0,0": "1"}, {}]], "structure": {}, "witnesses": {}}),
        ("potential", {}),
        ("cosimplicial", nonabelian_lie2(QQ).to_json()),
        ("cosimplicial", _LIE_Z3),
        ("theorem2", _LIE_Z3),
        ("prop7", _LIE_Z3),
        ("prop7", {**_LIE_Z3, "unit": [_Z3.to_str(_Z3.one), _Z3.to_str(_Z3.zero)]}),
        ("cosimplicial", {**dual_numbers(QQ).to_json(), "lie": "false"}),
        ("cosimplicial", _m2_with_swapped_pair(QQ)),
        ("prop7", _m2_with_swapped_pair(_Z3)),
        ("cosimplicial", {**dual_numbers(QQ).to_json(), "unit": ["0", "1"]}),
    ],
    ids=["entry-out-of-bounds", "zero-denominator", "duplicate-entry", "missing-d",
         "not-an-object", "N-not-an-int", "entries-not-a-list", "field-without-kind",
         "ses-empty", "cosimplicial-empty", "gauge-ext-empty", "brs-empty",
         "brs-no-constraints", "potential-empty", "cosimplicial-lie-Q",
         "cosimplicial-lie-Q(zeta_3)", "theorem2-lie", "prop7-lie",
         "prop7-lie-with-unit", "cosimplicial-lie-flag-a-string",
         "cosimplicial-product-pair-swapped", "prop7-product-pair-swapped",
         "cosimplicial-unit-off-by-one"],
)
def test_malformed_module_exits_2(tmp_path, command, obj):
    """Malformed input JSON is bad input: exit 2 with a message, no traceback."""
    bad = tmp_path / "bad_mod.json"
    bad.write_text(json.dumps(obj))
    src = str(Path(ncomplex.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ncomplex.cli", command, str(bad)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert "ncx: invalid input:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("hi_cols", [[{2: 1}, {2: 1}], [{2: 1}, {}]],
                         ids=["repeated-column", "zero-column"])
def test_dependent_hi_basis_exits_2(tmp_path, hi_cols):
    """An HI_basis with dependent columns is bad input, not a Lemma-12
    failure: exit 2 with a message that names it, no traceback."""
    f = make_cyclotomic(6)
    shift = ExactMatrix.from_columns([{1: f.one}, {2: f.one}, {}], 3, f)
    basis = ExactMatrix.from_columns(
        [{r: f.from_rat(v) for r, v in col.items()} for col in hi_cols], 3, f)
    bad = tmp_path / "gauge.json"
    bad.write_text(json.dumps({"N": 3, "field": f.to_json(), "A": shift.to_json(),
                               "HI_basis": basis.to_json(), "q": f.to_str(f.zeta())}))
    src = str(Path(ncomplex.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ncomplex.cli", "gauge-ext", str(bad)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert "ncx: invalid input:" in proc.stderr and "HI_basis" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, named",
    [
        (["poincare", "--N", "3", "--D", "0", "--k", "1"], "--D"),
        (["spin-seq", "--S", "1", "--D", "0"], "--D"),
        (["spin-seq", "--S", "2", "--D", "-2", "--wmax", "1"], "--D"),
        (["spin-example", "--p", "1,1,0"], "argument --p: must be four"),
        (["brs", "--example", "abelian", "--deg-max", "-1"], "--deg-max"),
        (["selftest", "--only", "99"], "--only"),
        (["selftest", "--only", "x"], "--only"),
        (["poincare", "--N", "3", "--D", "3", "--k", "0"], "--k"),
        (["poincare", "--N", "3", "--D", "3", "--k", "3"], "--k"),
        (["spin-seq", "--S", "0"], "--S"),
        (["poincare", "--N", "3", "--D", "2", "--k", "1", "--wmax", "-1"],
         "--wmax"),
        (["spin-seq", "--S", "1", "--wmax", "-2"], "--wmax"),
        (["gauge-ext", "--suite", "random", "--trials", "0"], "--trials"),
        (["gauge-ext", "--suite", "random", "--trials", "-3"], "--trials"),
        (["theorem2", "alg.json", "--N", "0"], "--N"),
        (["prop7", "alg.json", "--N", "0"], "--N"),
        (["prop7", "alg.json", "--window", "-5"], "--window"),
        (["prop7", "alg.json", "--window", "-1"], "--window"),
        (["cosimplicial", "alg.json", "--n-max", "-1"], "--n-max"),
        (["cosimplicial", "alg.json", "--n-max", "0"], "--n-max"),
        (["gauge-ext", "--suite", "random", "--hmax", "0"], "--hmax"),
        (["gauge-ext", "--suite", "random", "--hmax", "2"], "--hmax"),
        (["hexagon", "mod.json", "--ell", "1"], "--ell needs --m"),
        (["hexagon", "mod.json", "--m", "2"], "--m needs --ell"),
        (["gauge-ext", "alg.json", "--suite", "random"], "alg.json and --suite random"),
        (["brs", "alg.json", "--example", "abelian"], "alg.json and --example abelian"),
        (["spin-seq", "--S", "2", "--D", "3", "--wmax", "3"], "--wmax"),
        (["spin-seq", "--S", "2", "--D", "1", "--wmax", "6"], "--D"),
        (["poincare", "--N", "1", "--D", "2", "--k", "1"], "--N"),
        (["poincare", "--N", "0", "--D", "2", "--k", "1"], "--N"),
        (["spin-seq", "--S", "3", "--D", "4"], "--wmax"),
        (["spin-seq", "--S", "4", "--D", "2", "--wmax", "3"], "--wmax"),
        (["spin-seq", "--S", "3", "--D", "1"], "--D"),
        (["spin-seq", "--S", "1", "--D", "1", "--wmax", "5"], "--D"),
        (["hexagon", "mod.json", "--ell", "2", "--m", "2"],
         "ncx: --ell + --m must be at most N - 1 = 3, got 4"),
        (["theorem2", "alg.json", "--window", "2"],
         "ncx: --window must be at least --N = 3, got 2"),
        (["spin-example", "--p", "a,b"], "ncx: argument --p: must be four"),
        (["spin-example", "--two-particle", "1,0"],
         "ncx: argument --two-particle: must be four"),
    ],
    ids=["poincare-D0", "spin-seq-D0", "spin-seq-S2-D-minus-2",
         "spin-example-3-components",
         "brs-negative-deg-max", "selftest-unknown-criterion",
         "selftest-non-numeric-criterion", "poincare-k0", "poincare-k-equals-N",
         "spin-seq-S0",
         "poincare-negative-wmax", "spin-seq-negative-wmax",
         "gauge-ext-zero-trials", "gauge-ext-negative-trials",
         "theorem2-N0", "prop7-N0",
         "prop7-window-minus-5", "prop7-window-minus-1",
         "cosimplicial-n-max-minus-1", "cosimplicial-n-max-0",
         "gauge-ext-hmax-0", "gauge-ext-hmax-2",
         "hexagon-ell-without-m", "hexagon-m-without-ell",
         "gauge-ext-instance-and-suite", "brs-system-and-example",
         "spin-seq-S2-wmax-3", "spin-seq-S2-D1", "poincare-N1", "poincare-N0",
         "spin-seq-S3-wmax-5", "spin-seq-S4-wmax-3", "spin-seq-S3-D1",
         "spin-seq-S1-D1", "hexagon-ell-plus-m-past-N-1", "theorem2-window-below-N",
         "spin-example-p-not-ints", "spin-example-two-particle-2-components"],
)
def test_bad_option_exits_2(tmp_path, argv, named):
    """An out-of-range, incomplete or conflicting option is bad input: exit
    2 with one ncx: line that names the option, no traceback and no failure
    witness.  An input file given with a built-in source is not silently
    dropped, even when it is not the kind of input the command reads."""
    _write_split_ses(tmp_path / "ses.json")
    (tmp_path / "mod.json").write_text(json.dumps(block_module(QQ, 4, [4, 2]).to_json()))
    alg = dual_numbers(make_cyclotomic(3)).to_json()
    (tmp_path / "alg.json").write_text(json.dumps(alg))
    src = str(Path(ncomplex.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ncomplex.cli", *argv],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("ncx: ")
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("ncx-failure-*.json"))


def _subcommands():
    """Each ncx subcommand's parser, by name."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# the int options with no constant range, each with why
_UNRANGED = {
    ("potential", "--seed"): "any int seeds the draw",
    ("gauge-ext", "--seed"): "any int seeds the draw",
    ("selftest", "--seed"): "any int seeds the draw",
    ("theorem2", "--window"): "at least --N: cmd_theorem2 refuses a shorter one",
    ("spin-seq", "--wmax"): "at least 2 * --S: cmd_spin_seq refuses a smaller one",
}

_RANGED = [(name, action.option_strings[0], action.type.lo)
           for name, parser in _subcommands().items()
           for action in parser._actions if hasattr(action.type, "lo")]


def test_every_int_option_declares_an_option_range():
    """An int option declares its range on the option (a range type or
    choices), or is listed as unranged with a reason, so no new option ships
    unbounded by accident."""
    plain = {(name, action.option_strings[0])
             for name, parser in _subcommands().items()
             for action in parser._actions
             if action.type is int and action.choices is None}
    assert plain == set(_UNRANGED)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(_RANGED), data=st.data())
def test_option_range_refusal_is_one_ncx_line(case, data, monkeypatch, tmp_path, capsys):
    """A value below an option's declared range is refused by the parser,
    before anything runs: exit 2, one ncx: line naming the option, no
    witness."""
    name, flag, lo = case
    value = data.draw(st.integers(max_value=lo - 1), label="value")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([name, flag, str(value)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err == f"ncx: argument {flag}: must be at least {lo}, got {value}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", sorted(_subcommands()))
def test_help_shows_each_option_range(name, capsys):
    """``ncx <cmd> --help`` renders, with each declared range on its
    option's line."""
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(f"usage: ncx {name} ")
    for cmd, flag, lo in _RANGED:
        if cmd == name:
            assert re.search(rf"\n  {flag} \S+ +at least {lo}\n", out), (flag, out)


@pytest.mark.parametrize("option", [["--relifts", "5"], ["--seed", "1"]],
                         ids=["relifts", "seed"])
def test_ses_draw_options_are_unrecognized(tmp_path, option):
    """``ncx ses`` certifies the connecting map on a basis and draws
    nothing, so it has no --seed or --relifts: either is an unrecognized
    argument, exit 2, with no traceback and no failure witness."""
    _write_split_ses(tmp_path / "ses.json")
    src = str(Path(ncomplex.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "ncomplex.cli", "ses", "ses.json", *option],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert f"unrecognized arguments: {' '.join(option)}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("ncx-failure-*.json"))


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_malformed_threads_exits_2(monkeypatch, tmp_path, capsys, value):
    """A malformed NCX_THREADS is bad input, reported before any instance
    runs or any pool starts."""
    import concurrent.futures

    def never(*args, **kwargs):
        raise AssertionError("reached past the NCX_THREADS check")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NCX_THREADS", value)
    monkeypatch.setattr(acceptance, "_prop4_worker", never)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
    assert cli.main(["selftest", "--only", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ncx: ") and "NCX_THREADS" in captured.err
    assert not list(tmp_path.glob("ncx-failure-*.json"))


def test_gauge_ext_random_suite(capsys):
    assert cli.main(["gauge-ext", "--suite", "random", "--trials", "6",
                     "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["ok"], out["trials"], out["failures"]) == (True, 6, 0)


def test_gauge_ext_random_suite_survives_all_zero_seeds(capsys):
    """At hmax 3 some of the 300 instances draw only zero seeds; their H_I is
    the A-orbit span of e_0, which is A-stable, so the suite passes."""
    assert cli.main(["gauge-ext", "--suite", "random", "--hmax", "3", "--trials",
                     "300", "--seed", "42", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["ok"], out["trials"], out["failures"]) == (True, 300, 0)


def test_gauge_ext_random_failure_writes_first_instance(monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gauge, "theorem5_verify", lambda G: {"ok": False, "dims": {}})
    assert cli.main(["gauge-ext", "--suite", "random", "--trials", "2",
                     "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == 2
    rng = random.Random("42:gauge:0")
    N = rng.choice((3, 4, 5))
    G = gauge.random_gauge_instance(make_cyclotomic(2 * N), N, rng, hmax=20)
    art = json.loads((tmp_path / "ncx-failure-gauge-ext.json").read_text())
    assert art["witness"] == json.loads(json.dumps(G.to_json(), default=str))


def test_usage_error_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_math_failure_exit_code(monkeypatch, tmp_path, capsys):
    # force the math-failure path to check exit code 1 + witness artifact
    monkeypatch.chdir(tmp_path)

    def boom(args):
        return {"command": "homology", "ok": False}, {"bad": 1}

    monkeypatch.setattr(cli, "cmd_homology", boom)
    mod = tmp_path / "m.json"
    from ncomplex.fields import QQ
    from ncomplex.ndiff import block_module

    mod.write_text(json.dumps(block_module(QQ, 2, [2]).to_json()))
    rc = cli.main(["homology", str(mod)])
    assert rc == 1
    assert (tmp_path / "ncx-failure-homology.json").exists()
    art = json.loads((tmp_path / "ncx-failure-homology.json").read_text())
    assert art["witness"] == {"bad": 1}


def test_internal_error_exits_3(monkeypatch, module_file, capsys):
    """A broken invariant (AssertionError) is exit 3 with one stderr line,
    not exit 1 and a traceback."""

    def boom(args):
        raise AssertionError("dim H != dim Z - dim B")

    monkeypatch.setattr(cli, "cmd_homology", boom)
    assert cli.main(["homology", module_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ncx: internal error: dim H != dim Z - dim B\n"
    )


# -- every JSON loader the CLI reaches: its own output in, unknown keys out ----


def _gauge_instance_json():
    rng = random.Random("42:gauge:0")
    N = rng.choice((3, 4, 5))
    return gauge.random_gauge_instance(make_cyclotomic(2 * N), N, rng, hmax=20).to_json()


_LOADER_INPUTS = {
    "field-Q": (Field.from_json, lambda: QQ.to_json()),
    "field-Q(zeta_6)": (Field.from_json, lambda: make_cyclotomic(6).to_json()),
    "matrix": (ExactMatrix.from_json, lambda: ExactMatrix.from_rows(
        [[_Z3.zeta(), _Z3.zero], [_Z3.one, _Z3.from_rat(1, 2)]], _Z3).to_json()),
    "module": (ndiff.NDiffModule.from_json,
               lambda: block_module(QQ, 3, [3, 1]).to_json()),
    "ses": (ndiff.ShortExactSequence.from_json,
            lambda: ndiff.random_ses(QQ, 3, random.Random(0)).to_json()),
    "gauge-instance": (gauge.GaugeInstance.from_json, _gauge_instance_json),
    "algebra": (AlgebraData.from_json, lambda: group_algebra_cyclic(_Z3, 2).to_json()),
    "lie-algebra": (AlgebraData.from_json, lambda: nonabelian_lie2(QQ).to_json()),
    "brs-system": (brs.PolyConstraintSystem.from_json,
                   lambda: brs.twisted_nonabelian_system().to_json()),
}


@pytest.mark.parametrize("name", _LOADER_INPUTS)
def test_loaders_accept_their_own_json(name):
    """Each loader reads back every key its own ``to_json`` writes."""
    load, make = _LOADER_INPUTS[name]
    obj = json.loads(json.dumps(make()))
    assert load(obj).to_json() == obj


def _module_json():
    return block_module(QQ, 3, [3, 1]).to_json()


def _ses_json():
    return ndiff.random_ses(QQ, 3, random.Random(0)).to_json()


@pytest.mark.parametrize(
    "argv, make, path",
    [
        (["homology"], _module_json, ()),
        (["homology"], _module_json, ("d",)),
        (["homology"], _module_json, ("field",)),
        (["multiplicities"], _module_json, ()),
        (["ses"], _ses_json, ()),
        (["ses"], _ses_json, ("F", "d")),
        (["ses"], _ses_json, ("psi",)),
        (["gauge-ext"], _gauge_instance_json, ()),
        (["gauge-ext"], _gauge_instance_json, ("HI_basis",)),
        (["gauge-ext"], _gauge_instance_json, ("field",)),
        (["cosimplicial"], lambda: dual_numbers(QQ).to_json(), ()),
        (["prop7"], lambda: dual_numbers(_Z3).to_json(), ("field",)),
        (["brs"], lambda: brs.abelian_system().to_json(), ()),
        (["potential"], lambda: {"T": {}, "degree": 0}, ()),
    ],
    ids=["module", "module-d", "module-field", "multiplicities", "ses", "ses-F-d",
         "ses-psi", "gauge", "gauge-HI_basis", "gauge-field", "algebra",
         "algebra-field", "brs-system", "tensor"],
)
def test_unknown_json_key_exits_2(monkeypatch, tmp_path, capsys, argv, make, path):
    """A key that no loader reads is bad input, at the top level or nested:
    exit 2 with a message that names the key, and no witness."""
    monkeypatch.chdir(tmp_path)
    obj = make()
    node = obj
    for key in path:
        node = node[key]
    node["not_a_key"] = 1
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(obj))
    assert cli.main(argv + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncx: invalid input:") and "'not_a_key'" in err
    assert not list(tmp_path.glob("ncx-failure-*.json"))


@pytest.mark.parametrize(
    "argv, make, path, field, named",
    [
        (["homology"], _module_json, ("d",), make_cyclotomic(3).to_json(),
         "Q(zeta_3)"),
        (["homology"], _module_json, ("d",), {"kind": "nonsense"}, "'nonsense'"),
        (["ses"], _ses_json, ("phi",), make_cyclotomic(4).to_json(), "Q(zeta_4)"),
        (["gauge-ext"], _gauge_instance_json, ("A",), _Q, "Field(Q)"),
    ],
    ids=["homology-d-cyclotomic", "homology-d-nonsense", "ses-phi", "gauge-A"],
)
def test_matrix_field_mismatch_exits_2(monkeypatch, tmp_path, capsys, argv, make,
                                       path, field, named):
    """A matrix whose own ``field`` is not the field of the object it belongs
    to, or is no field at all, is bad input: exit 2 with a message that
    names the field, and no witness."""
    monkeypatch.chdir(tmp_path)
    obj = make()
    node = obj
    for key in path:
        node = node[key]
    node["field"] = field
    bad = tmp_path / "input.json"
    bad.write_text(json.dumps(obj))
    assert cli.main(argv + [str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncx: invalid input:") and named in err
    assert not list(tmp_path.glob("ncx-failure-*.json"))


# -- every command: its report pinned, its exit 1 with the failing instance --


# sha256 of the stdout of each command on the inputs that
# ``_write_command_inputs`` writes, with ``--format json`` unless the id ends
# in ``csv``; recorded before every handler returned (report, witness) to
# one exit-code path in ``cli.main``.
GOLDEN_COMMANDS = {
    "homology": (["homology", "mod.json"],
                 "8c0ba390d2063fc069c413f8c1b4763b7e093d1e9caebce17b5c2482f6ea64a7"),
    "homology-csv": (["homology", "mod.json"],
                     "2595d0760d43dafcfebca16d67e8db56db0ecef812ea7b7cea7603e945216584"),
    "multiplicities": (["multiplicities", "mod.json"],
                       "c32dc7b0655e3208503162c884cd99bbe6c25594179e555f782b61d7af5a682c"),
    "hexagon": (["hexagon", "mod.json"],
                "ab435348b39f174260ba2c0e256ab571e3d4a5f42ce1c859986cc89d77341ecc"),
    "hexagon-ell-1-m-1": (["hexagon", "mod.json", "--ell", "1", "--m", "1"],
                          "560077f41c6d1e65c1f5b7186111c54734e7bb33d18e355d9eeb48a4ca1b5c73"),
    "ses": (["ses", "ses.json"],
            "5c71470a34bd2f90a29f90455c55cf7976791a451e5fd1947605cd7e1825c4e8"),
    "cosimplicial": (["cosimplicial", "alg.json"],
                     "18cce49401bbf32658bb604988ae86ab8aa5987ddad604eb57e03b6dba361b27"),
    "theorem2": (["theorem2", "alg.json"],
                 "fdf9d7fb13cef11029dee66d3f46612ba53a89395d4aab896ff327c2ee6bea52"),
    "prop7": (["prop7", "alg.json"],
              "6f37299dfd5daf5cd086ac6ff3d316f24b7055d29e79a67225da46a3834ed7ed"),
    "poincare": (["poincare", "--N", "3", "--D", "2", "--k", "1", "--wmax", "3"],
                 "2d99b3bd54d28bbf1efe57dd6870463454d39cb8cfa801b7714da3bcf460cecb"),
    "poincare-csv": (["poincare", "--N", "3", "--D", "2", "--k", "1", "--wmax", "3"],
                     "0208c1028c0a5bc65ad28f6dca20d3cb93de64561be7b3ac96ca83b1f9a8da59"),
    "spin-seq": (["spin-seq", "--S", "1", "--D", "2", "--wmax", "2"],
                 "a01c889a8c1f8eb7cb3dcce2d90dc5aec759e96260463b3249e564af10e718b7"),
    "gauge-ext": (["gauge-ext", "gauge.json"],
                  "fe1dc995737151633ad13e0c308a43bbf0552a749a70dc9bdce26efa8bb3fc79"),
    "spin-example-1": (["spin-example", "--spin", "1"],
                       "0acc42040430ca1b90fb2e65957b9b3e126f3794bae67dc4922267dbc3839fab"),
    "spin-example-2": (["spin-example", "--spin", "2"],
                       "ebccbd24bf0d8b4e11a7a9771c7ae9c2b4d196d567d78759995a9d93ea53d06a"),
    "spin-example-two-particle": (
        ["spin-example", "--spin", "2", "--two-particle", "1,0,1,0"],
        "3010630274c9b11ad553f000cd5e3e693cd892a217e6e58a5979de4af47f3776"),
}


def _write_command_inputs(tmp_path):
    """The inputs of the command pins and of the exit-1 cases: a module, the
    split sequence, the dual numbers over Q(zeta_3) and a gauge instance."""
    (tmp_path / "mod.json").write_text(json.dumps(_module_json()))
    _write_split_ses(tmp_path / "ses.json")
    (tmp_path / "alg.json").write_text(json.dumps(dual_numbers(_Z3).to_json()))
    (tmp_path / "gauge.json").write_text(json.dumps(_gauge_instance_json()))


@pytest.mark.parametrize("name", GOLDEN_COMMANDS)
def test_command_report_is_pinned(name, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _write_command_inputs(tmp_path)
    argv, digest = GOLDEN_COMMANDS[name]
    fmt = "csv" if name.endswith("csv") else "json"
    assert cli.main([*argv, "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _algebra_json():
    return dual_numbers(_Z3).to_json()


# each command that can exit 1: its argv, the library verifier forced to fail
# as (module, name, failing result), and the witness it must write then
_FAILURES = {
    "multiplicities": (
        ["multiplicities", "mod.json"],
        (ndiff, "proposition4_check", {"ok": False, "multiplicities": {}, "dims": {}}),
        _module_json),
    "hexagon": (["hexagon", "mod.json"],
                (ndiff, "all_hexagons_check", {"ok": False, "hexagons": []}),
                _module_json),
    "hexagon-ell-1-m-1": (["hexagon", "mod.json", "--ell", "1", "--m", "1"],
                          (ndiff, "hexagon_check", {"ok": False}), _module_json),
    "ses": (["ses", "ses.json"], (ndiff, "ses_hexagon_check", {"ok": False}),
            lambda: json.loads(Path("ses.json").read_text())),
    "theorem2": (
        ["theorem2", "alg.json"],
        (cosimplicial, "theorem2_verify", cosimplicial.TheoremReport(
            False, {"compared": 1, "ordinary": {}, "mismatches": [[0, 1, 2]]})),
        lambda: {"algebra": _algebra_json(), "N": 3, "window": 6,
                 "mismatches": [[0, 1, 2]]}),
    "prop7": (["prop7", "alg.json"],
              (cosimplicial, "prop7_verify", cosimplicial.TheoremReport(False, {})),
              lambda: {"algebra": _algebra_json(), "N": 3, "window": 3}),
    "poincare": (
        ["poincare", "--N", "3", "--D", "2", "--k", "1", "--wmax", "3"],
        (young, "poincare_verify", {"ok": False, "dims": {}, "h0_total": 0,
                                    "h0_expected_total": 1, "nonzero_offgrid": []}),
        lambda: {"N": 3, "D": 2, "k": 1, "wmax": 3}),
    "spin-seq": (["spin-seq", "--S", "1", "--D", "2", "--wmax", "2"],
                 (young, "spin_sequence_check", {"ok": False}),
                 lambda: {"S": 1, "D": 2, "wmax": 2}),
    "brs": (["brs", "--example", "abelian"],
            (brs, "theorem4_verify", {"ok": False, "details": {}, "tower_orders": []}),
            lambda: brs.abelian_system().to_json()),
    "gauge-ext": (["gauge-ext", "gauge.json"],
                  (gauge, "theorem5_verify", {"ok": False, "dims": {}}),
                  _gauge_instance_json),
    "gauge-ext-random": (["gauge-ext", "--suite", "random", "--trials", "2"],
                         (gauge, "theorem5_verify", {"ok": False, "dims": {}}),
                         _gauge_instance_json),
    "spin-example": (["spin-example"],
                     (gauge, "spin_complex_report", {"hermitian": False, "H_dims": {}}),
                     lambda: {"spin": 1, "p": [1, 1, 0, 0], "two_particle": None}),
    "selftest": (["selftest", "--only", "13"],
                 (gauge, "spin_complex_report", {"hermitian": False, "H_dims": {}}),
                 lambda: {"part": "spin1"}),
}


@pytest.mark.parametrize("name", _FAILURES)
def test_failure_exits_1_with_its_witness(name, monkeypatch, tmp_path, capsys):
    """Every command that can exit 1 does so when its verifier fails: the
    report says ``"ok": false`` and the failing instance is the witness."""
    monkeypatch.chdir(tmp_path)
    _write_command_inputs(tmp_path)
    argv, (module, verifier, result), witness = _FAILURES[name]
    monkeypatch.setattr(module, verifier, lambda *args, **kwargs: result)
    assert cli.main([*argv, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    art = json.loads((tmp_path / f"ncx-failure-{argv[0]}.json").read_text())
    assert art["witness"] == json.loads(json.dumps(witness(), default=str))


class _ClosedStdout:
    """A stdout whose reader is gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "failure"])
@pytest.mark.parametrize("name", ["multiplicities", "selftest"])
def test_closed_stdout_keeps_the_exit_code(name, fails, monkeypatch, tmp_path):
    """A stdout closed before the report is written, or before selftest's
    progress lines, ends without a traceback and with the verdict's exit
    code: 0 on ``ok``, 1 with the witness written on a failure."""
    monkeypatch.chdir(tmp_path)
    _write_command_inputs(tmp_path)
    argv, (module, verifier, result), witness = _FAILURES[name]
    if fails:
        monkeypatch.setattr(module, verifier, lambda *args, **kwargs: result)
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(sink.fileno()))
        code = cli.main(argv)
    assert code == (1 if fails else 0)
    art = tmp_path / f"ncx-failure-{name}.json"
    assert art.exists() == fails
    if fails:
        assert json.loads(art.read_text())["witness"] == json.loads(
            json.dumps(witness(), default=str))


def test_pipe_closed_after_the_first_line(tmp_path):
    """``ncx multiplicities mod.json | head -1`` with unbuffered output, so
    each line is written as it comes: the reader closes the pipe after the
    first of 124 lines, and the command still exits 0 with no traceback."""
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(block_module(QQ, 60, [60, 30, 1]).to_json()))
    src = str(Path(ncomplex.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncomplex.cli", "multiplicities", str(mod)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert first == b"command: multiplicities\n"
    assert "Traceback" not in err
