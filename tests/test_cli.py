import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from akchar import verify
from akchar.cli import main
from akchar.combinat import list_multipartitions
from akchar.formulas import CharSpec, character_value


@pytest.mark.parametrize("module", [
    "akchar", "akchar.cli", "akchar.combinat", "akchar.formulas",
    "akchar.operators", "akchar.rings", "akchar.verify",
])
def test_public_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChars:
    def test_generic_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "chars", "--m", "1", "--k", "1", "--l", "1", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["n"] == 2
        assert doc["rows"][0]["mu"] == [[2]]
        assert doc["rows"][0]["value"] == {
            "terms": [{"c": 2, "eq": 0, "eu": [0]}, {"c": -2, "eq": 1, "eu": [0]}]
        }
        assert doc["rows"][1]["mu"] == [[1, 1]]
        assert doc["rows"][1]["value"] == {"terms": [{"c": 4, "eq": 0, "eu": [0]}]}

    def test_group_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "chars", "--m", "2", "--k", "1,1", "--l", "1,1", "--n", "1",
            "--spec", "group",
        )
        assert code == 0
        doc = json.loads(out)
        rows = {json.dumps(r["mu"]): r["value"] for r in doc["rows"]}
        assert rows["[[1], []]"] == {"m": 2, "coeffs": [4]}
        assert rows["[[], [1]]"] == {"m": 2, "coeffs": [0]}

    def test_t2_spec(self, capsys):
        code, out, _ = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--mu", "[[2]]",
            "--spec", "t2:3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["value"]["order"] == 3

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--n", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mu,value"
        assert lines[1] == "[[2]],2 - 2*q"
        assert lines[2] == '"[[1,1]]",4'

    def test_malformed_mu(self, capsys):
        code, _, err = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--mu", "[[2,]]",
        )
        assert code == 2
        assert "error" in err

    def test_vector_length_mismatch(self, capsys):
        code, _, _ = run_cli(
            capsys, "chars", "--k", "1,1", "--l", "1", "--n", "1",
        )
        assert code == 2

    def test_mu_overrides_n_consistency(self, capsys):
        code, _, _ = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--mu", "[[2]]", "--n", "3",
        )
        assert code == 2

    def test_bool_parts_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--mu", "[[true,true]]",
        )
        assert code == 2 and out == ""
        assert "error" in err

    def test_unwritable_out(self, capsys, tmp_path):
        path = tmp_path / "missing" / "table.json"
        code, out, err = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--n", "1",
            "--out", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "65", "-1", "x"])
    def test_jobs_out_of_range(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--n", "2", "--jobs", jobs,
        )
        assert code == 2 and out == ""
        assert "--jobs" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "chars", "--k", "1", "--l", "1", "--n", "1",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["rows"]


    def test_json_table_peak_below_whole_document(self, capsys, tmp_path):
        # the JSON table is built one row at a time; building the whole
        # document of per-term dicts first, as json.dumps needs, peaks higher
        path = tmp_path / "table.json"
        argv = ("chars", "--k", "2,1", "--l", "1,1", "--n", "6",
                "--format", "json", "--out", str(path))
        assert run_cli(capsys, *argv)[0] == 0  # warm the closed-form caches
        tracemalloc.start()
        try:
            assert run_cli(capsys, *argv)[0] == 0
            rows_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            spec = CharSpec(2, (2, 1), (1, 1))
            doc = {
                "config": {"command": "chars", "m": 2, "k": [2, 1], "l": [1, 1],
                           "n": 6, "spec": "generic", "mu": None},
                "rows": [
                    {"mu": [list(comp) for comp in mu],
                     "value": character_value(mu, spec).to_json()}
                    for mu in list_multipartitions(2, 6)
                ],
            }
            whole = json.dumps(doc, indent=2) + "\n"
            doc_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == whole
        assert 2 * rows_peak < doc_peak


class TestHooks:
    def test_full_alphabet(self, capsys):
        code, out, _ = run_cli(
            capsys, "hooks", "--m", "1", "--k", "1", "--l", "1", "--n", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["footer"] == {"sum_sf": 8, "dimension_power": 8, "ok": True}

    def test_single_row_alphabet(self, capsys):
        code, out, _ = run_cli(
            capsys, "hooks", "--m", "1", "--k", "1", "--l", "0", "--n", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [{"lambda": [[3]], "semistandard": 1, "standard": 1}]
        assert doc["footer"]["sum_sf"] == 1

    def test_two_colors(self, capsys):
        code, out, _ = run_cli(
            capsys, "hooks", "--m", "2", "--k", "1,1", "--l", "1,1", "--n", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 5
        assert doc["footer"]["sum_sf"] == 16

    def test_csv_footer(self, capsys):
        code, out, _ = run_cli(
            capsys, "hooks", "--k", "1", "--l", "1", "--n", "2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[-1] == "sum(s*f),4,4"


def _plus_one(f):
    return lambda *args: f(*args) + 1


def _all_failing(checker):
    return lambda *args: [dict(r, status="fail") for r in checker(*args)]


# (suite, a name akchar.verify imports, a wrong stand-in built from the
# original, the keys of the suite's report); one entry per report branch
_INJECTED_FAULTS = [
    ("oracle", "character_value", _plus_one,
     {"mu", "k", "l", "closed_form", "oracle"}),
    ("ak-relations", "check_ak_presentation", _all_failing,
     {"n", "k", "l", "failed"}),
    ("shoji-relations", "check_shoji_presentation", _all_failing,
     {"n", "k", "l", "failed"}),
    ("specialization", "group_character_value", _plus_one,
     {"mu", "k", "l", "specialized_oracle", "group_formula"}),
    ("theta-closed-forms", "theta1_closed", _plus_one,
     {"slice", "i", "a", "enumerated", "closed"}),
    ("theta-closed-forms", "theta2_closed", _plus_one,
     {"slice", "i", "a", "enumerated", "closed"}),
    ("coef", "bracket", _plus_one, {"check", "a", "coef", "expected"}),
    ("coef", "coef_first_order", _plus_one,
     {"check", "i", "a", "coef", "expected"}),
    ("coef", "theta", _plus_one, {"check", "m", "r", "a", "sum", "theta"}),
    ("hook-sum", "bracket", _plus_one, {"check", "mu", "oracle", "expected"}),
    ("hook-sum", "hook_sum_rhs", _plus_one,
     {"check", "m", "mu", "oracle_mod_t2", "hook_sum"}),
    ("hook-sum", "TruncSeries",
     lambda cls: SimpleNamespace(t_power=_plus_one(cls.t_power)), {"check", "got"}),
    ("wreath", "wreath_hook_value", _plus_one,
     {"m", "mu", "specialized", "wreath"}),
    ("dimension-identity", "count_standard_multitableaux", _plus_one,
     {"check", "k", "l", "n", "sum", "expected"}),
    ("dimension-identity", "list_hook_multipartitions", lambda f: lambda *args: [],
     {"check", "mu", "k", "l", "count"}),
    ("dimension-identity", "mp_num_nonzero", _plus_one,
     {"check", "mu", "count", "expected"}),
]


class TestVerify:
    def test_small_oracle_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "oracle", "--max-n", "2", "--m", "1",
        )
        assert code == 0
        assert "suite oracle" in out and "0 failures" in out

    def test_relations_exact_size(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "ak-relations", "--n", "2", "--m", "2",
        )
        assert code == 0
        assert "[pass]" in out

    def test_unknown_suite(self, capsys):
        for suite in ("nosuch", "oracle-equivalence"):
            code, _, err = run_cli(capsys, "verify", "--suite", suite)
            assert code == 2
            assert "unknown suite" in err

    @pytest.mark.parametrize("flags", [
        ("--max-n", "-1"), ("--n", "-1"), ("--m", "0"),
    ], ids=["max-n", "n", "m"])
    def test_out_of_range_bounds(self, capsys, flags):
        code, out, err = run_cli(capsys, "verify", "--suite", "ak-relations", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flags[0] in err

    def test_max_n_zero_is_valid(self, capsys):
        # the dimension identity starts at n = 0
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "dimension-identity", "--max-n", "0",
        )
        assert code == 0
        assert "0 failures [pass]" in out and " 0 cases" not in out

    def test_empty_suite_is_not_a_pass(self, capsys):
        # n = 5 is beyond the oracle, presentation and specialization grids
        code, out, _ = run_cli(capsys, "verify", "--m", "1", "--n", "5")
        assert code == 0
        lines = out.splitlines()
        assert "suite oracle: 0 cases, 0 failures [empty]" in lines
        assert "suite coef: 3 cases, 0 failures [pass]" in lines
        assert not any(" 0 cases" in line and "[pass]" in line for line in lines)

    @pytest.mark.parametrize("argv, line", [
        (("--suite", "coef", "--n", "3"), "suite coef: 10 cases"),
        (("--suite", "theta-closed-forms", "--n", "3"),
         "suite theta-closed-forms: 3 cases"),
        (("--suite", "coef", "--m", "2"), "suite coef: 18 cases"),
    ], ids=["coef-n", "theta-n", "coef-m"])
    def test_single_hook_suites_apply_filters(self, capsys, argv, line):
        # --n picks the block size a and --m the index i, or m in reassembly;
        # these suites used to ignore both and run 62, 24 and 32 cases
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out.startswith(line + ", 0 failures [pass]")

    @pytest.mark.parametrize("argv", [
        ("--suite", "oracle", "--n", "9"),
        ("--suite", "wreath", "--m", "4"),
        ("--max-n", "0", "--m", "5"),
    ], ids=["suite-n", "suite-m", "all"])
    def test_no_case_selected(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "no case" in err

    def test_n_picks_its_size_without_walking_to_max_n(self, capsys):
        # --n picks its one size without walking the sizes up to --max-n
        assert verify._ns(0, 5, 10**18, 3) == [3]
        _, expected, _ = run_cli(capsys, "verify", "--suite", "all", "--n", "1")
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "--max-n", "1000000000000", "--n", "1")
        assert code == 0 and out == expected

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theta-closed-forms", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["suites"][0]["name"] == "theta-closed-forms"

    @pytest.mark.parametrize("suite, name, wrong, keys", _INJECTED_FAULTS,
                             ids=[f"{s}-{n}" for s, n, _, _ in _INJECTED_FAULTS])
    def test_failure_report(self, capsys, monkeypatch, suite, name, wrong, keys):
        # a wrong value from what a suite compares must reach its report
        monkeypatch.setattr(verify, name, wrong(getattr(verify, name)))
        argv = ("verify", "--suite", suite, "--max-n", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1 and f"suite {suite}: " in out and "[FAIL]" in out
        [line] = [x for x in out.splitlines() if x.startswith("  counterexample: ")]
        assert set(json.loads(line.removeprefix("  counterexample: "))) == keys
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1 and '"ok": false' in out
        [report] = json.loads(out)["suites"]
        assert set(report["failures"][0]) == keys


def _no_child_left():
    # every process verify forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising(f, bad):
    # f, but a bad input on the arguments that ``bad`` picks
    def wrapped(*args):
        if bad(*args):
            raise ValueError(f"bad input {args}")
        return f(*args)

    return wrapped


@pytest.mark.skipif(not hasattr(os, "fork"), reason="verify --jobs forks")
class TestVerifyJobs:
    """``verify --jobs J`` runs slice i of every suite's cases in process i."""

    def test_failures_in_every_slice_print_the_same(self, capsys, monkeypatch):
        # odd-sized alphabets fail, spread over the oracle and specialization
        # cases, so the slices of every J send failures back
        oracle, calls = verify.char_value_oracle, []

        def odd_fails(mu, k, l):
            calls.append(mu)  # in this process only
            return oracle(mu, k, l) + (sum(k) + sum(l)) % 2

        monkeypatch.setattr(verify, "char_value_oracle", odd_fails)
        for fmt in ("text", "json"):
            outputs, own_calls = set(), []
            for jobs in ("1", "2", "3", "8"):
                calls.clear()
                code, out, err = run_cli(capsys, "verify", "--max-n", "1",
                                         "--format", fmt, "--jobs", jobs)
                assert code == 1 and err == ""
                _no_child_left()
                outputs.add(out)
                own_calls.append(len(calls))
            assert len(outputs) == 1
            assert own_calls == sorted(own_calls, reverse=True)
            assert own_calls[-1] < own_calls[0] // 4
        [doc] = [json.loads(out) for out in outputs]
        failures = {s["name"]: len(s["failures"]) for s in doc["suites"]}
        assert failures["oracle"] > 8 and failures["specialization"] > 8

    @pytest.mark.parametrize("jobs", ["1", "2", "3", "8"])
    def test_first_error_in_case_order_wins(self, capsys, monkeypatch, jobs):
        # theta-closed-forms (suite 4) raises on its cases i = 2 and i = 3,
        # which J = 3 puts in slices 1 and 2; coef (suite 5) raises on its
        # first case, in slice 0, the parent's own; J = 1 stops at i = 2
        monkeypatch.setattr(verify, "theta2_closed",
                            _raising(verify.theta2_closed, lambda i, a: i >= 2))
        monkeypatch.setattr(verify, "bracket",
                            _raising(verify.bracket, lambda *args: True))
        code, out, err = run_cli(capsys, "verify", "--max-n", "1", "--jobs", jobs)
        _no_child_left()
        assert (code, out, err) == (2, "", "error: bad input (2, 1)\n")

    def test_child_without_result_is_an_error(self, capsys, monkeypatch):
        # the case i = 3 is in slice 2 of 3, which only a child runs
        closed = verify.theta2_closed
        monkeypatch.setattr(verify, "theta2_closed",
                            lambda i, a: os._exit(3) if i == 3 else closed(i, a))
        code, out, err = run_cli(capsys, "verify", "--suite", "theta-closed-forms",
                                 "--max-n", "1", "--jobs", "3")
        _no_child_left()
        assert code == 2 and out == ""
        assert err.startswith("error: verify slice 2 of 3 (process ")
        assert "ended with no result" in err

    def test_unexpected_error_stops_the_children(self, monkeypatch):
        # the parent's slice breaks while the children are still running:
        # they are killed and reaped, not waited for
        closed = verify.theta2_closed

        def stalled(i, a):
            if i == 1:
                raise RuntimeError("broken")
            time.sleep(60)
            return closed(i, a)

        monkeypatch.setattr(verify, "theta2_closed", stalled)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="broken"):
            main(["verify", "--suite", "theta-closed-forms", "--max-n", "1",
                  "--jobs", "3"])
        assert time.perf_counter() - start < 30
        _no_child_left()

    def test_more_jobs_than_cases(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "theta-closed-forms",
                               "--max-n", "2", "--jobs", "8")
        _no_child_left()
        assert code == 0
        assert out == "suite theta-closed-forms: 6 cases, 0 failures [pass]\n"


def test_suite_slices_join_to_the_suite(monkeypatch):
    # each injected fault fails some cases of its suite; for every J the
    # slices count the whole suite and their failures join to the suite's
    for suite, name, wrong, _ in _INJECTED_FAULTS:
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, wrong(getattr(verify, name)))
            whole = verify.run_suite(suite, max_n=2)
            assert whole.failures, (suite, name)
            for jobs in (2, 3, 7):
                parts = [verify.run_suite(suite, max_n=2, part=(i, jobs))
                         for i in range(jobs)]
                assert {part.cases for part in parts} == {whole.cases}, (suite, name)
                assert [f for part in parts for f in part.failures] == whole.failures


@pytest.mark.parametrize("what, value", [
    ("part", (1, 1)), ("part", (-1, 2)), ("part", (0, 0)), ("part", (0.5, 2)),
    ("part", (0, 2.0)), ("part", ("0", 2)), ("part", (True, 2)),
    ("part", (0, 1, 2)), ("part", 1),
    ("max_n", 2.5), ("max_n", True), ("max_n", -1),
    ("m_only", 1.0), ("m_only", True), ("m_only", 0),
    ("n_only", True), ("n_only", 0.0), ("n_only", -1),
])
def test_run_suite_rejects_bad_arguments(what, value):
    # run_suite is public: a fractional, bool or out-of-range bound or slice
    # is an error naming its argument, not truncated, taken as 1 or passed on
    with pytest.raises(ValueError, match=f"^{what} must be"):
        verify.run_suite("coef", **{what: value})


class TestComparePair:
    def test_report_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compare-pair-regev", "--max-n", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2 + 5
        for row in doc["rows"]:
            assert "stated_series" in row and "oracle_series" in row
            assert isinstance(row["series_equal"], bool)

    @pytest.mark.parametrize("max_n", ["0", "-2"])
    def test_max_n_out_of_range(self, capsys, max_n):
        code, out, err = run_cli(capsys, "compare-pair-regev", "--max-n", max_n)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--max-n" in err

    def test_exit_zero_despite_mismatch(self, capsys):
        # the literal constants disagree with the oracle; the command reports
        # without asserting
        code, out, _ = run_cli(capsys, "compare-pair-regev", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert any(not row["series_equal"] for row in doc["rows"])

    def test_oracle_bytes_pinned(self, capsys):
        # oracle series and group values of every m = 2 multipartition up to
        # n = 4, byte for byte
        code, out, _ = run_cli(capsys, "compare-pair-regev", "--max-n", "4")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "bedca410e283a9d62b50b97d779cc8f8288313826436bc98586adc990090926e")


_BAD_INPUTS = [
    ("chars", "--k", "1,x", "--l", "1", "--n", "1"),
    ("chars", "--k", "-1", "--l", "1", "--n", "1"),
    ("chars", "--k", "1", "--n", "2"),
    ("chars", "--m", "2", "--k", "1", "--l", "1", "--n", "2"),
    ("chars", "--k", "1", "--l", "1", "--n", "2", "--spec", "t2:x"),
    ("chars", "--k", "1", "--l", "1", "--n", "2", "--spec", "t2:0"),
    ("chars", "--k", "1", "--l", "1", "--n", "2", "--spec", "p"),
    ("chars", "--k", "1", "--l", "1", "--mu", "[[]]"),
    ("chars", "--k", "1", "--l", "1", "--mu", '{"a":1}'),
    ("chars", "--k", "1", "--l", "1"),
    ("chars", "--k", "0", "--l", "0", "--n", "1"),
    ("hooks", "--k", "1", "--l", "1", "--n", "-1"),
    ("compare-pair-regev", "--n", "0"),
]


@pytest.mark.parametrize("argv", _BAD_INPUTS, ids=" ".join)
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_bare_t2_is_order_2(capsys):
    argv = ("chars", "--k", "2,1", "--l", "1,2", "--n", "3", "--format", "csv")
    code, bare, _ = run_cli(capsys, *argv, "--spec", "t2")
    assert code == 0
    code, explicit, _ = run_cli(capsys, *argv, "--spec", "t2:2")
    assert code == 0 and bare == explicit


_CHARS = ("chars", "--k", "2,1", "--l", "1,2")
_HOOKS = ("hooks", "--k", "2,1", "--l", "1,2", "--n", "4")

# full stdout of each output path of chars, hooks and compare-pair-regev
_OUTPUT_SHA256 = [
    ((*_CHARS, "--n", "5", "--format", "json"),
     "523e8887e61827d9b00df272ed7fbecac65dd7aa6f7fb48fad6655a9751c9cbd"),
    ((*_CHARS, "--n", "5", "--format", "csv"),
     "3ed96c47a1813e257ad95ffb731f37c4bfea7f1ede432c8700f8cb1b6ee4f789"),
    ((*_CHARS, "--n", "5", "--spec", "group", "--format", "csv"),
     "b08d4b218377b4669dd67c04cce86d6e5ba2c51a2f43b73a727a6a69319674c3"),
    ((*_CHARS, "--n", "5", "--spec", "group", "--format", "json"),
     "7a6a2c931d0989bd875fa59978638fef45cf86f3694d7df9b81227e663febbd6"),
    ((*_CHARS, "--n", "5", "--spec", "t2:3", "--format", "csv"),
     "8ebbe130649bfee849c51e39dce0b95744dc367cd27617dab568c9b9c0be9573"),
    ((*_CHARS, "--n", "5", "--spec", "t2:3", "--format", "json"),
     "f52f1c9f17dbae315d8c16f4bf09ca3da0cf6220eeaf2cd99638f82e75e5abeb"),
    (("chars", "--k", "2,1", "--l", "1,1", "--n", "5", "--format", "json"),
     "d37b2f2b45f89a780f0fd3d71ea189d7433179472fc8300364cae3e7b0eef4d5"),
    ((*_CHARS, "--mu", "[[2,1],[2]]", "--format", "json"),
     "be14425315a32a544e163cfe4b59d24a91365cb3113af2fd481a6fd0aba27da4"),
    ((*_HOOKS, "--format", "json"),
     "1afdb03dbf7d5fd130196314b0de4580ceffd01da112b602641ddb7b538ca563"),
    ((*_HOOKS, "--format", "csv"),
     "fc46311f6e0874727c51aeaddfe89d7993f6e544bf2f21da16e2b0978f3ce147"),
    (("compare-pair-regev", "--max-n", "3", "--format", "csv"),
     "7791101b34f67d4167aedb198ad4b6aa49456bd75c074ede4bcab2c80b40edb2"),
]


@pytest.mark.parametrize("argv, digest", _OUTPUT_SHA256,
                         ids=[" ".join(argv) for argv, _ in _OUTPUT_SHA256])
def test_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestDeterminism:
    COMMANDS = [
        ("chars", "--k", "1,1", "--l", "1,0", "--n", "2"),
        ("chars", "--k", "1", "--l", "1", "--n", "3", "--format", "csv"),
        ("hooks", "--k", "1,1", "--l", "1,1", "--n", "2"),
        ("verify", "--suite", "theta-closed-forms"),
        ("compare-pair-regev", "--max-n", "2"),
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_jobs_do_not_change_output(self, capsys, command):
        outputs = []
        for jobs in ("1", "8"):
            code = main([*command, "--jobs", jobs])
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_repeated_runs_identical(self, capsys):
        first = run_cli(capsys, "chars", "--k", "2", "--l", "1", "--n", "2")
        second = run_cli(capsys, "chars", "--k", "2", "--l", "1", "--n", "2")
        assert first == second


def _readme_examples():
    """(argv, expected stdout) for each ``$ akchar ...`` line of README.md,
    whose output runs to the end of its code block."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    ).splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ akchar "):
            end = lines.index("```", i)
            examples.append((shlex.split(line)[2:], "".join(
                out + "\n" for out in lines[i + 1:end]
            )))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_module_entry_point():
    root = Path(__file__).resolve().parent.parent
    env_path = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "akchar", "chars", "--k", "1", "--l", "1",
         "--n", "1"],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"]


def _loaded_by_cli_import(*modules):
    """Those of ``modules`` that a fresh ``import akchar.cli`` loads."""
    env_path = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, akchar.cli; print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_imports_no_executor():
    # the verify split uses os.fork; start-up loads no pool
    assert _loaded_by_cli_import("concurrent.futures", "multiprocessing", "pickle") == "[]"


def test_cli_imports_no_dataclasses():
    # dataclasses pulls in inspect (and ast, dis, tokenize) at every start
    assert _loaded_by_cli_import("dataclasses", "inspect") == "[]"


def _bench_run_module():
    """``bench/run.py``, loaded from its file: the benchmark's pinned table
    hashes are the reference here."""
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_RUN = _bench_run_module()


@pytest.mark.parametrize("order", sorted(BENCH_RUN.TABLE_SHA256))
def test_table_bytes_match_benchmark_pins(capsys, order):
    k, l = order.split("|")
    code, out, _ = run_cli(capsys, "chars", "--k", k, "--l", l,
                           "--n", str(BENCH_RUN.TABLE_N), "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        BENCH_RUN.TABLE_SHA256[order]
