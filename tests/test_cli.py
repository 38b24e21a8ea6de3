"""Command line behaviour: printed values, report schema, determinism.

Everything runs through main() in-process; one subprocess test at the end
covers the ``python -m starsum`` entry point.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import starsum
from starsum.cli import _normalize_argv, main
from starsum.zeta_numeric import clear_value_cache


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalMhs:
    def test_star_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval-mhs", "--index", "2,1",
                               "--n", "2", "--star")
        assert code == 0
        assert out == "11/8\n"

    def test_strict_default(self, capsys):
        code, out, _ = run_cli(capsys, "eval-mhs", "--index", "2,1",
                               "--n", "2")
        assert code == 0
        assert out == "1/4\n"

    def test_mollified_values(self, capsys):
        code, out, _ = run_cli(capsys, "eval-mhs", "--index", "3",
                               "--n", "2", "--mollified", "big")
        assert (code, out) == (0, "11/16\n")
        code, out, _ = run_cli(capsys, "eval-mhs", "--index", "3",
                               "--n", "2", "--mollified", "small")
        assert (code, out) == (0, "17/8\n")

    def test_integers_keep_the_slash(self, capsys):
        code, out, _ = run_cli(capsys, "eval-mhs", "--index", "2", "--n", "1")
        assert (code, out) == (0, "1/1\n")

    def test_negative_index_via_equals_join(self, capsys):
        code, out, _ = run_cli(capsys, "eval-mhs", "--index", "-2",
                               "--n", "2", "--star")
        assert code == 0
        assert out == "-3/4\n"

    def test_zero_entry_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval-mhs", "--index", "0,1",
                               "--n", "3")
        assert code == 2
        assert "zero entry in index text" in err

    def test_negative_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval-mhs", "--index", "2", "--n",
                               "-1")
        assert code == 2
        assert "n must be >= 0" in err


class TestExpand:
    def test_weighted_expansion(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--base", "3,3")
        assert code == 0
        assert out == "4*(3,3) + 2*(6)\n"

    def test_depth_one(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--base", "5")
        assert (code, out) == (0, "2*(5)\n")

    def test_signed_base_with_leading_dash(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--base", "-2,-2")
        assert code == 0
        assert "(-2,-2)" in out and "(4)" in out

    def test_normalize_argv_joins_value_flags(self):
        argv = ["expand", "--base", "-2,-2", "--coeff", "2"]
        assert _normalize_argv(argv) == ["expand", "--base=-2,-2",
                                         "--coeff", "2"]
        untouched = ["eval-mhs", "--index", "2,1", "--n", "3"]
        assert _normalize_argv(untouched) == untouched


class TestVerify:
    def test_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "two-one",
                               "--a", "1", "--n-max", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "summary: 5/5 passed"

    def test_invalid_spec_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "c21",
                               "--c", "2", "--n-max", "3")
        assert code == 2
        assert "every c_j must be >= 3" in err

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "two-one",
                               "--a", "1,1", "--n-max", "4", "--format",
                               "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "config", "items", "summary"}
        assert report["command"] == "verify"
        assert report["config"]["format"] == "json"
        assert report["config"]["timings"] is False
        # verify runs serially at no tolerance: neither is echoed
        assert report["config"] == {"format": "json", "seed": 0,
                                    "timings": False}
        assert report["summary"] == {"items": 4, "passed": 4, "failed": 0}
        for pos, item in enumerate(report["items"], start=1):
            assert item["n"] == pos
            assert item["equal"] is True
            assert item["elapsed_ms"] == 0
            assert item["params"]["family"] == "TWO_ONE"

    def test_reports_are_byte_identical(self, capsys):
        argv = ("verify", "--family", "c21", "--a", "1", "--b", "0",
                "--c", "3", "--n-max", "3", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_workers_flag_is_gone(self):
        # so is --memo-cap: the memo limit is a constant of exact_eval
        for flag in ("--workers", "--memo-cap"):
            with pytest.raises(SystemExit) as exit_info:
                main(["verify", "--family", "two-one", "--a", "1",
                      "--n-max", "2", flag, "2000"])
            assert exit_info.value.code == 2

    @pytest.mark.parametrize("name,flags,params", [
        ("two-one", ["--a", "1,0"],
         {"family": "TWO_ONE", "a": [1, 0], "b": [], "c": [], "t": 0,
          "r": 2}),
        ("two-one-two", ["--a", "0,1"],
         {"family": "TWO_ONE_TWO", "a": [0, 1], "b": [], "c": [], "t": 0,
          "r": 1}),
        ("c21", ["--c", "3,4"],
         {"family": "C21", "a": [0, 0], "b": [0, 0], "c": [3, 4], "t": 0,
          "r": 2}),
        ("one-c21", ["--c", "3,4"],
         {"family": "ONE_C21", "a": [0, 0, 0], "b": [0, 0], "c": [3, 4],
          "t": 0, "r": 2}),
        ("c212", ["--c", "3,4", "--t", "1"],
         {"family": "C212", "a": [0, 0], "b": [0, 0], "c": [3, 4], "t": 1,
          "r": 2}),
        ("one-c212", ["--c", "3,4", "--t", "1"],
         {"family": "ONE_C212", "a": [0, 0, 0], "b": [0, 0], "c": [3, 4],
          "t": 1, "r": 2}),
        ("two-one-c2", ["--c", "3,4"],
         {"family": "TWO_ONE_C2", "a": [0, 0], "b": [0, 0], "c": [3, 4],
          "t": 0, "r": 2}),
        ("c2-two-one-c2", ["--c", "3,4"],
         {"family": "C2_TWO_ONE_C2", "a": [0], "b": [0, 0], "c": [3, 4],
          "t": 0, "r": 1}),
        ("ones-c", ["--c", "2,3"],
         {"family": "ONES_C", "a": [0, 0], "b": [], "c": [2, 3], "t": 0,
          "r": 2}),
    ])
    def test_omitted_runs_are_zero_filled(self, capsys, name, flags, params):
        code, out, _ = run_cli(capsys, "verify", "--family", name, *flags,
                               "--n-max", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == {"items": 2, "passed": 2, "failed": 0}
        assert all(item["params"] == params for item in report["items"])

    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "two-one",
                               "--a", "2", "--n-max", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["params", "n", "lhs", "rhs", "ok", "elapsed_ms"]
        assert len(rows) == 4
        assert [row[1] for row in rows[1:]] == ["1", "2", "3"]
        assert all(row[4] == "True" for row in rows[1:])
        params = json.loads(rows[1][0])
        assert params["a"] == [2]


class TestVerifyMzsv:
    def test_limit_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify-mzsv", "--family", "two-one",
                               "--a", "1,1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        item = report["items"][0]
        assert item["within_tol"] is True
        assert item["n"] is None
        assert item["diff"] <= item["budget"]

    def test_divergent_spec_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-mzsv", "--family", "ones-c",
                               "--a", "1", "--c", "3")
        assert code == 2
        assert "no limit form" in err

    @pytest.mark.parametrize("tol,message", [
        ("nan", "tolerance must be positive and finite"),
        ("inf", "tolerance must be positive and finite"),
        ("0", "tolerance must be positive and finite"),
        # finite and positive, but past what the chain can certify
        ("1e-300", "could not certify tol=1e-300"),
    ])
    def test_bad_tol_is_a_usage_error(self, capsys, tol, message):
        # nan ended in a traceback, inf printed PASS against an infinite
        # budget, and 1e-300 ended in a traceback
        code, out, err = run_cli(capsys, "verify-mzsv", "--family",
                                 "two-one", "--a", "1", "--tol", tol)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err


class TestSuites:
    def test_middlestep(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--suite", "middlestep")
        assert code == 0
        assert out.strip().endswith("summary: 4/4 passed")

    def test_ittw(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--suite", "ittw",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "ittw"
        assert report["summary"] == {"items": 6, "passed": 6, "failed": 0}

    def test_lemma31_is_seeded(self, capsys):
        argv = ("suite", "--suite", "lemma31", "--seed", "3", "--format",
                "json")
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        report = json.loads(first)
        assert report["summary"]["failed"] == 0
        assert report["summary"]["items"] == 12
        assert report["config"]["seed"] == 3
        # only the shift form (i, iii) has a c to echo
        for item in report["items"]:
            params = item["params"]
            assert ("c" in params) == (params["variant"] in ("i", "iii"))

    @pytest.mark.parametrize("suite", ["lemma31", "middlestep", "ittw"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_n_is_a_usage_error(self, capsys, suite, n):
        # a run that checks nothing must not report success
        code, out, err = run_cli(capsys, "suite", "--suite", suite, "--n", n)
        assert code == 2
        assert out == ""
        assert err == "error: --n must be >= 1\n"

    def test_n_on_paper_examples_is_a_usage_error(self, capsys):
        # paper-examples has no size knob, so an --n would be ignored
        code, out, err = run_cli(capsys, "suite", "--suite", "paper-examples",
                                 "--n", "7")
        assert code == 2
        assert out == ""
        assert err == "error: --n does not apply to the paper-examples suite\n"

    def test_paper_examples(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--suite", "paper-examples",
                               "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == {"items": 46, "passed": 46, "failed": 0}
        kinds = [item["params"].get("check", "family")
                 for item in report["items"]]
        assert kinds == ["family"] * 41 + ["zlobin"] * 3 + ["three-n"] * 2

    def test_unknown_suite_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["suite", "--suite", "everything"])
        assert exit_info.value.code == 2


class TestReportBytes:
    """sha256 of whole reports, pinned so that refactors of the verifiers
    and of the item builders cannot change a byte of what is printed."""

    @pytest.mark.parametrize("argv,digest", [
        (("suite", "--suite", "paper-examples", "--format", "json"),
         "c5968ca3d9496fc5f92fae7969fd2be636e05d06b74fecb48ea61a14b4885ff4"),
        (("suite", "--suite", "ittw", "--format", "json"),
         "1b6543d7e9d572ed2be3205750c3067ef822f7eef8257ab1cd9d5f601e15530f"),
        (("suite", "--suite", "middlestep", "--format", "json"),
         "85efbac083104d93a12270e3bf716625acf74b1945cbcebe0cd4e19a234ec832"),
        (("suite", "--suite", "lemma31", "--format", "json"),
         "ea9bc19e0125fad289a8518d8d963265b2a5ca01fcfdfa7b6f30cc858b0f5fb7"),
        (("verify-mzsv", "--family", "two-one", "--a", "1,1"),
         "970a10de8ebfd54359e5ffbf87b8cdad288eb45f283ce2218c15375dd7206168"),
        (("verify-mzsv", "--family", "two-one", "--a", "1,1", "--format",
          "json"),
         "89db179f49107b21e794a1ce75d9611e5508fbcbf71ea7cac58dcb010276aea0"),
        (("verify-mzsv", "--family", "two-one", "--a", "1,1", "--format",
          "csv"),
         "b222909a973c837d677684f7a6bd01f4b3915927661e66dc34de614ecd42df11"),
    ])
    def test_report_digest(self, capsys, argv, digest):
        # a value cached at a tighter tolerance would be served as is
        clear_value_cache()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTopLevel:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2

    def test_unknown_family_choice(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--family", "nope", "--n-max", "2"])
        assert exit_info.value.code == 2

    def test_module_entry_point(self):
        # the child imports the same starsum, installed or from a checkout
        root = os.path.dirname(os.path.dirname(starsum.__file__))
        path = os.pathsep.join(filter(None, (root,
                                             os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "starsum", "eval-mhs", "--index", "2,1",
             "--n", "2", "--star"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout == "11/8\n"
