import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ncomplex
from ncomplex import acceptance, brs, cli, gauge, ndiff
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
        raise cli.MathFailure({"ok": False})

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
        (["spin-example", "--p", "1,1,0"], "p must"),
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
         "spin-seq-S1-D1"],
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
    monkeypatch.setattr(gauge, "theorem5_verify", lambda G: {"ok": False})
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
        raise cli.MathFailure({"command": "homology", "ok": False},
                              witness={"bad": 1})

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
