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
from starsum.exact_eval import rat_str
from starsum.families import TWO_ONE, FamilySpec, verify_instance, verify_sweep
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
        # verify draws nothing and reads no tolerance: neither is echoed
        assert report["config"] == {"format": "json", "timings": False}
        assert report["summary"] == {"items": 4, "passed": 4, "failed": 0}
        for pos, item in enumerate(report["items"], start=1):
            assert item["n"] == pos
            assert item["equal"] is True
            assert item["elapsed_ms"] == 0
            assert item["params"]["family"] == "TWO_ONE"

    def test_one_record_shape(self, capsys):
        # verify_sweep, verify_instance and verify read one per-spec cell
        # generator: a cell has one record and one verdict everywhere
        _, out, _ = run_cli(capsys, "verify", "--family", "two-one", "--a",
                            "1", "--n-max", "20", "--format", "json")
        items = json.loads(out)["items"]
        for item in items:
            del item["elapsed_ms"]
        sweep = verify_sweep(TWO_ONE, {"r": (1,), "a": (1,)}, 20)
        assert sweep["results"] == items
        spec = FamilySpec(TWO_ONE, a=(1,))
        for item in items:
            report = verify_instance(spec, item["n"])
            assert (rat_str(report["lhs"]), rat_str(report["rhs"]),
                    report["equal"]) == (item["lhs"], item["rhs"],
                                         item["equal"])

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
        # the tolerance applied; nothing is drawn, so no seed is echoed
        assert report["config"] == {"format": "json", "timings": False,
                                    "tol": 1e-6}
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

    @pytest.mark.parametrize("suite,flags,config", [
        ("middlestep", (), {"n": 2}),
        ("middlestep", ("--n", "1"), {"n": 1}),
        ("ittw", (), {"n": 1, "tol": 1e-3}),
        ("lemma31", (), {"n": 3, "seed": 9}),
        ("lemma31", ("--n", "1"), {"n": 1, "seed": 9}),
        ("paper-examples", (), {"tol": 1e-3}),
    ], ids=["middlestep", "middlestep-n", "ittw", "lemma31", "lemma31-n",
            "paper-examples"])
    def test_config_echoes_only_what_applied(self, capsys, suite, flags,
                                             config):
        # every run passes --seed 9 --tol 1e-3; a suite echoes a setting
        # only when it reads it, and the n it ran with
        code, out, _ = run_cli(capsys, "suite", "--suite", suite, *flags,
                               "--seed", "9", "--tol", "1e-3", "--format",
                               "json")
        assert code == 0
        report = json.loads(out)
        assert report["config"] == {"format": "json", "timings": False,
                                    **config}

    def test_unused_seed_and_tol_change_nothing(self, capsys):
        _, plain, _ = run_cli(capsys, "suite", "--suite", "middlestep",
                              "--format", "json")
        _, other, _ = run_cli(capsys, "suite", "--suite", "middlestep",
                              "--seed", "9", "--tol", "1e-3", "--format",
                              "json")
        assert plain == other

    def test_invalid_tol_is_refused_everywhere(self, capsys):
        # middlestep reads no tolerance, but a nan is still a usage error
        code, out, err = run_cli(capsys, "suite", "--suite", "middlestep",
                                 "--tol", "nan")
        assert (code, out) == (2, "")
        assert "tolerance must be positive and finite" in err

    def test_unknown_suite_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["suite", "--suite", "everything"])
        assert exit_info.value.code == 2


class TestReportBytes:
    """sha256 of whole reports, pinned so that refactors of the verifiers
    and of the item builders cannot change a byte of what is printed."""

    CASES = [
        (("suite", "--suite", "paper-examples", "--format", "json"),
         "d856533da8f070422e725d47107638a1c9a4a574b69b8765706740320e8648c8"),
        (("suite", "--suite", "ittw", "--format", "json"),
         "b1628a441ca9e8e70b9ee511e45ec672ffae89525455fb656a55687ed1386b82"),
        (("suite", "--suite", "middlestep", "--format", "json"),
         "ec9052ff9a3caff38d6aebae7a52e4e35b9ba1a5ee23995b2bd2790fe8782692"),
        (("suite", "--suite", "lemma31", "--format", "json"),
         "1c49f17eeb717eab57e9e832b237fca4213b008206a82e97db2c2b620fad59aa"),
        (("verify-mzsv", "--family", "two-one", "--a", "1,1"),
         "970a10de8ebfd54359e5ffbf87b8cdad288eb45f283ce2218c15375dd7206168"),
        (("verify-mzsv", "--family", "two-one", "--a", "1,1", "--format",
          "json"),
         "83029c03d70065c781ca83032e5016836d9db2e34e7f7dd5dff9f93b0ba08917"),
        (("verify-mzsv", "--family", "two-one", "--a", "1,1", "--format",
          "csv"),
         "b222909a973c837d677684f7a6bd01f4b3915927661e66dc34de614ecd42df11"),
        (("verify", "--family", "two-one", "--a", "1,1", "--n-max", "20"),
         "2eb6d2394eccbe64671d1739c3f58198a7699417a7366aaaf4c57b34260b8713"),
        (("verify", "--family", "two-one", "--a", "1,1", "--n-max", "20",
          "--format", "json"),
         "7eefd0192b7c003bb16f4cb0cbbf2995cafc7f8a3e8b7e13346c2eff0fa32e64"),
        (("verify", "--family", "two-one", "--a", "1,1", "--n-max", "20",
          "--format", "csv"),
         "8ebb67f5fbb7d371d0a9c3a1beed4cb2b17cff9033db44a4c2b699c853e122f1"),
        (("verify", "--family", "c21", "--a", "1,0", "--b", "0,1", "--c",
          "3,4", "--n-max", "12", "--format", "json"),
         "2b2ef6825266b76cab76c5aa5818d8cd6dc5cd4c26abc0a1e2bad11a46dde070"),
    ]

    # named after the argv, with the flags' dashes dropped, so that a
    # re-pinned digest keeps its test's name
    @pytest.mark.parametrize("argv,digest", CASES, ids=[
        " ".join(argv).replace("--", "") for argv, _ in CASES])
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
