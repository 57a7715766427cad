import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from synideal import dfa, ideals, injection
from synideal.cli import main
from synideal.dfa import parse_dfa, to_text
from synideal.semigroup import DEFAULT_CAP
from synideal.witness import IdealClass, build

from oracles import sigma_ladder_dfas


@pytest.fixture()
def dfa_file(tmp_path):
    def write(d, name="input.dfa"):
        path = tmp_path / name
        path.write_text(to_text(d))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWitnessCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--class", "two-sided", "--n", "3")
        assert code == 0
        assert parse_dfa(out) == build(IdealClass.TWO_SIDED, 3)

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--class", "left", "--n", "3", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["alphabet"] == ["a", "c", "d", "e"]

    def test_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "witness", "--class", "right", "--n", "3", "--format", "dot"
        )
        assert code == 0 and out.startswith("digraph")

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--class", "two-sided", "--n", "1")
        assert code == 2 and "error" in err


class TestAnalyze:
    def test_sigma_ladder_middle(self, capsys, dfa_file):
        path = dfa_file(sigma_ladder_dfas()[9])
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        assert "sigma 9" in out

    def test_witness_bound_met(self, capsys, dfa_file):
        for klass in IdealClass:
            path = dfa_file(build(klass, 5))
            code, out, _ = run_cli(capsys, "analyze", path, "--json")
            data = json.loads(out)
            assert code == 0 and data["bound_met"] is True

    def test_witness_bound_met_top_of_range(self, capsys, dfa_file):
        path = dfa_file(build(IdealClass.RIGHT, 7))
        code, out, _ = run_cli(capsys, "analyze", path, "--json")
        data = json.loads(out)
        assert code == 0 and data["sigma"] == 117649 and data["bound_met"] is True

    def test_chain_length_reported(self, capsys, dfa_file):
        path = dfa_file(build(IdealClass.TWO_SIDED, 5))
        code, out, _ = run_cli(capsys, "analyze", path)
        assert "max_chain_length 3" in out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dfa"
        bad.write_text("states 2\nalphabet a\ninitial 0\nfinal 1\n")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2 and "missing transition" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/x.dfa")
        assert code == 2

    def test_sigma_star_meets_the_classes_it_has_witnesses_for(self, capsys, tmp_path):
        # The one-state DFA of Sigma* is an ideal of every class, but the
        # two-sided witnesses start at n = 2.
        path = tmp_path / "all.dfa"
        path.write_text("states 1\nalphabet a\ninitial 0\nfinal 0\ntrans a 0\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, err) == (0, "")
        assert "is_two_sided_ideal True" in out
        bounds = [line for line in out.splitlines() if line.startswith(("class_", "bound_"))]
        assert bounds == [
            "class_bound right 1 met True",
            "class_bound left 1 met True",
            "bound_met True",
        ]


#: A valid two-state DFA in JSON, and edits of it whose state count or state
#: indices are floats or booleans.
TWO_STATES = {"states": 2, "alphabet": ["a"], "initial": 0, "final": [1], "trans": {"a": [1, 1]}}
NON_INTEGER_STATES = {
    "float initial": {"initial": 1.0},
    "float final": {"final": [1.0]},
    "bool initial": {"initial": False},
    "bool final": {"final": [True]},
    "bool image": {"trans": {"a": [True, 1]}},
    "float states": {"states": 2.0},
    "bool states": {"states": True, "final": [], "trans": {"a": [0]}},
}


class TestJsonStateIndices:
    @pytest.mark.parametrize("command", ["analyze", "classify", "export-dot"])
    @pytest.mark.parametrize("edit", NON_INTEGER_STATES.values(), ids=NON_INTEGER_STATES)
    def test_non_integer_states_exit_2(self, capsys, tmp_path, command, edit):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TWO_STATES, **edit}))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_the_unedited_file_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(TWO_STATES))
        code, out, _ = run_cli(capsys, "export-dot", str(path))
        assert code == 0 and "  __start -> 0;" in out and "  0 -> 1 [" in out


#: Edits of TWO_STATES whose letters the JSON reader once misread, with the
#: error each now exits 2 with: a string read as its characters, a
#: transition row outside the alphabet dropped, the empty letter accepted.
BAD_LETTERS = {
    "string alphabet": (
        {"alphabet": "ab", "trans": {"a": [1, 1], "b": [0, 1]}},
        "'alphabet' is 'ab', not a list of letters",
    ),
    "row outside the alphabet": (
        {"trans": {"a": [1, 1], "c": [0, 0]}},
        "letter 'c' not in alphabet",
    ),
    "empty letter": ({"alphabet": [""], "trans": {"": [1, 1]}}, "bad letter '' in alphabet"),
    "letter with a space": (
        {"alphabet": ["a b"], "trans": {"a b": [1, 1]}},
        "bad letter 'a b' in alphabet",
    ),
    "missing row": ({"alphabet": ["a", "b"]}, "missing transition row for letter 'b'"),
}


class TestJsonLetters:
    @pytest.mark.parametrize("edit, message", BAD_LETTERS.values(), ids=BAD_LETTERS)
    def test_bad_letters_exit_2(self, capsys, tmp_path, edit, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TWO_STATES, **edit}))
        code, out, err = run_cli(capsys, "export-dot", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestClassifyCommand:
    def test_text(self, capsys, dfa_file):
        path = dfa_file(build(IdealClass.LEFT, 4))
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 0 and "is_left_ideal True" in out

    def test_json(self, capsys, dfa_file):
        path = dfa_file(build(IdealClass.RIGHT, 4))
        code, out, _ = run_cli(capsys, "classify", path, "--json")
        data = json.loads(out)
        assert code == 0 and data["is_right_ideal"] is True and data["sigma"] == 64

    def test_json_input_file(self, capsys, tmp_path):
        from synideal.dfa import to_json_dict

        path = tmp_path / "w.json"
        path.write_text(json.dumps(to_json_dict(build(IdealClass.TWO_SIDED, 4))))
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0 and "is_two_sided_ideal True" in out


class TestSemigroupCommand:
    def test_size(self, capsys, dfa_file):
        path = dfa_file(sigma_ladder_dfas()[27])
        code, out, _ = run_cli(capsys, "semigroup", path)
        assert code == 0 and out.strip() == "semigroup n=3 size=27"

    def test_list_sorted(self, capsys, dfa_file):
        path = dfa_file(build(IdealClass.TWO_SIDED, 3))
        code, out, _ = run_cli(capsys, "semigroup", path, "--list")
        lines = out.splitlines()
        assert lines[0] == "semigroup n=3 size=6"
        assert lines[1:] == sorted(lines[1:])

    def test_cap_exit_3(self, capsys, dfa_file):
        path = dfa_file(sigma_ladder_dfas()[27])
        code, out, err = run_cli(capsys, "semigroup", path, "--cap", "5")
        assert (code, out, err) == (3, "", "error: semigroup exceeds cap 5\n")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_exit_2(self, capsys, dfa_file, cap):
        # Every closure has an element, so such a cap is bad input, not a
        # budget the semigroup exceeded.
        path = dfa_file(sigma_ladder_dfas()[27])
        code, _, err = run_cli(capsys, "semigroup", path, "--cap", cap)
        assert code == 2 and "cap" in err


class TestBounds:
    def test_left_table(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--class", "left", "--n-max", "6")
        assert code == 0
        values = [int(line.split()[1]) for line in out.splitlines()]
        assert values == [1, 3, 11, 67, 629, 7781]

    def test_two_sided_starts_at_two(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--class", "two-sided", "--n-max", "7")
        values = [int(line.split()[1]) for line in out.splitlines()]
        assert values == [2, 6, 25, 150, 1361, 16968]

    def test_right_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--class", "right", "--n-max", "7", "--json"
        )
        data = json.loads(out)
        assert [b for _, b in data["bounds"]] == [1, 2, 9, 64, 625, 7776, 117649]

    @pytest.mark.parametrize(
        "klass, n_max, least",
        [("right", "0", 1), ("left", "-3", 1), ("two-sided", "1", 2)],
    )
    def test_below_the_smallest_witness_exit_2(self, capsys, klass, n_max, least):
        code, out, err = run_cli(capsys, "bounds", "--class", klass, "--n-max", n_max)
        assert code == 2 and out == ""
        message = f"--n-max must be at least {least} for the {klass} class, got {n_max}"
        assert err == f"error: {message}\n"


class TestVerifyInjection:
    @pytest.mark.parametrize("n, inferred", [(3, "left"), (4, "two-sided")])
    def test_auto_class(self, capsys, dfa_file, n, inferred):
        # The 3-state two-sided witness is too small for the two-sided
        # construction, but its language is also a left ideal.
        path = dfa_file(build(IdealClass.TWO_SIDED, n))
        code, out, _ = run_cli(capsys, "verify-injection", path)
        assert code == 0 and "injective True" in out
        assert out.startswith(f"injection {inferred} n={n} ")

    def test_explicit_left(self, capsys, dfa_file):
        path = dfa_file(build(IdealClass.LEFT, 4))
        code, out, _ = run_cli(capsys, "verify-injection", path, "--json")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True

    def test_not_an_ideal(self, capsys, dfa_file):
        path = dfa_file(sigma_ladder_dfas()[27])
        code, _, err = run_cli(capsys, "verify-injection", path)
        assert code == 2

    @pytest.mark.parametrize("flags", [[], ["--class", "left"]], ids=["inferred", "given"])
    def test_closes_its_input_once(self, capsys, dfa_file, monkeypatch, flags):
        closed = []
        real = dfa.transition_semigroup

        def counted(d, cap=None):
            closed.append(d.n)
            return real(d, cap)

        for module in (dfa, ideals, injection):
            monkeypatch.setattr(module, "transition_semigroup", counted)
        path = dfa_file(build(IdealClass.LEFT, 6))
        code, out, _ = run_cli(capsys, "verify-injection", path, *flags)
        assert code == 0 and "injective True" in out
        assert closed == [6]


class TestEnumerate:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "2", "--alphabet-size", "2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True and data["per_class"]["right"]["bound_met"] is True

    def test_sample_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--n", "4", "--alphabet-size", "2",
            "--class", "left", "--mode", "sample",
            "--count", "5", "--seed", "9", "--json",
        )
        data = json.loads(out)
        assert code == 0 and data["samples_obtained"] == 5

    def test_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--alphabet-size", "4")
        assert code == 3

    def test_budget_message_gives_a_small_count_exactly(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "5", "--alphabet-size", "2")
        assert code == 3
        assert err == "error: 151415625 candidate DFAs exceed the budget 100000000\n"

    @pytest.mark.parametrize("n", ["200", "3000"])
    def test_budget_exit_3_at_large_n(self, capsys, n):
        # The exact counts have over 10,000 digits; the refusal builds none
        # of them, so it neither overflows int-to-str nor takes long.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", "--n", n, "--alphabet-size", "26")
        assert time.perf_counter() - start < 0.5
        assert code == 3 and out == ""
        assert err == (
            "error: more than 10000000000000000 candidate DFAs exceed the budget 100000000\n"
        )

    @pytest.mark.parametrize("klass", ["right", "left", "two-sided"])
    @pytest.mark.parametrize("n", ["14", "20"])
    def test_sample_mode_past_the_packed_closures(self, capsys, klass, n):
        # Some left and two-sided draws' Sigma*.L subset constructions pass
        # 256 subsets, more than the packed form holds: the sampler rejects
        # them.  At n=20 the closed form has more maps than len() reports
        # (20^19 + 19).  Some right draws' semigroups pass DEFAULT_CAP (1 of
        # 3 at n=14, 3 of 3 at n=20): each is a cap violation that counts in
        # no class, and the campaign goes on to the next sample.
        args = ["--n", n, "--alphabet-size", "2", "--class", klass, "--mode", "sample"]
        code, out, err = run_cli(capsys, "enumerate", *args, "--count", "3", "--seed", "1", "--json")
        assert err == "", err
        data = json.loads(out)
        assert data["samples_obtained"] == 3
        capped = [v for v in data["violations"] if v["check"] == "cap"]
        assert [v["index"] for v in capped] == {
            ("right", "14"): [0], ("right", "20"): [0, 1, 2]
        }.get((klass, n), [])
        for v in capped:
            assert v["cap"] == DEFAULT_CAP and v["dfa"].startswith(f"states {n}\n"), v
        assert data["per_class"][klass]["count"] + len(capped) == 3
        assert code == (1 if data["violations"] else 0)

    def test_sample_mode_above_the_closure_limit_exit_2(self, capsys):
        args = ["--n", "256", "--alphabet-size", "2", "--class", "left", "--mode", "sample"]
        code, out, err = run_cli(capsys, "enumerate", *args, "--count", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: n must be at most 255") and "got 256" in err

    def test_identical_bytes(self, capsys):
        args = ["enumerate", "--n", "2", "--alphabet-size", "2", "--json"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    # sha256 of the full n=3, 3-letter sweep output, recorded when the
    # letter-ur exceedance channel was deleted (the output before, less its
    # `table_exceedances` key and line); any refactor must keep it
    # byte-identical
    N3_A3_DIGESTS = {
        "json": "c41f1626b49216277f51abfa991b037032d9ad993b16ef197e9af0069eac9084",
        "text": "248fb57c46127bc9639edac3d44952285a5193297f0bca623786f1752686d699",
    }

    @pytest.mark.parametrize("fmt", sorted(N3_A3_DIGESTS))
    def test_three_state_sweep_output_is_unchanged(self, capsys, fmt):
        args = ["enumerate", "--n", "3", "--alphabet-size", "3"]
        code, out, _ = run_cli(capsys, *args, *(["--json"] if fmt == "json" else []))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.N3_A3_DIGESTS[fmt]

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "0", "--alphabet-size", "1"],
            ["--n", "-1", "--alphabet-size", "1"],
            ["--n", "2", "--alphabet-size", "0"],
            ["--n", "3", "--alphabet-size", "30", "--class", "left", "--mode", "sample"],
            ["--n", "3", "--alphabet-size", "2", "--class", "left", "--mode", "sample",
             "--count", "-3"],
        ],
        ids=["n-zero", "n-negative", "alphabet-zero", "alphabet-above-26", "count-negative"],
    )
    def test_out_of_range_spec_exit_2(self, capsys, args):
        code, out, err = run_cli(capsys, "enumerate", *args)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be" in err

    def test_progress_goes_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--n", "2", "--alphabet-size", "2", "--progress"
        )
        assert code == 0
        assert "alphabet size" in err and "alphabet size" not in out


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, capsys):
        argv = ["enumerate", "--n", "2", "--alphabet-size", "2"]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "synideal", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        code, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert out.startswith("campaign ")


class TestExportDot:
    def test_dot(self, capsys, dfa_file):
        path = dfa_file(build(IdealClass.RIGHT, 3))
        code, out, _ = run_cli(capsys, "export-dot", path)
        assert code == 0 and "doublecircle" in out

