import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncomplex
from ncomplex import cli
from ncomplex.fields import QQ
from ncomplex.ndiff import block_module


@pytest.fixture()
def module_file(tmp_path):
    E = block_module(QQ, 3, [3, 1])
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(E.to_json()))
    return str(path)


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


def test_selftest_json_is_one_document(capsys):
    assert cli.main(["selftest", "--only", "1", "--format", "json"]) == 0
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
def test_selftest_report_is_pinned(only, capsys):
    assert cli.main(["selftest", "--seed", "42", "--only", only,
                     "--format", "json"]) == 0
    report = _without_elapsed(json.loads(capsys.readouterr().out))
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
        ("potential", {}),
    ],
    ids=["entry-out-of-bounds", "zero-denominator", "duplicate-entry", "missing-d",
         "not-an-object", "N-not-an-int", "entries-not-a-list", "field-without-kind",
         "ses-empty", "cosimplicial-empty", "gauge-ext-empty", "brs-empty",
         "potential-empty"],
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
        raise AssertionError("B plus the complement does not span Z")

    monkeypatch.setattr(cli, "cmd_homology", boom)
    assert cli.main(["homology", module_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ncx: internal error: B plus the complement does not span Z\n"
    )
