import json
import os
import pathlib
import subprocess
import sys

import pytest

import symkit
from symkit.cli import cli_main
from symkit.perm import evaluation_budget


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_error_exit(code, err):
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def run_subprocess(argv):
    """stderr of ``symkit argv`` run in a subprocess, which must end in one
    error line; the timeout keeps a scan that never stops from stalling the
    suite."""
    src = str(pathlib.Path(symkit.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "symkit", *argv],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src})
    assert_error_exit(proc.returncode, proc.stderr)
    return proc.stderr


class TestClassify:
    def test_pairs_is_cq(self, capsys):
        code, out, _ = run(capsys, "classify", "stab:partition:pairs")
        assert code == 0
        assert "label: C_Q" in out

    def test_full_json(self, capsys):
        code, out, _ = run(capsys, "--json", "classify", "full")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "C_S"
        assert payload["lambda_case"] == "aleph_1"
        assert payload["replay_ok"] is True
        assert payload["probes"]

    def test_fix_infinite_block_exit_0(self, capsys):
        code, out, _ = run(capsys, "--json", "classify",
                           "fix(stab:partition:evens-block;1,3)")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "C_S" and payload["gamma"] == [1, 3]
        assert payload["replay_ok"] is True

    def test_unknown_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "oracle:full-sym")
        assert code == 2

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(capsys, "classify", "bogus:thing")
        assert code == 1
        assert "error" in err

    def test_lying_partition_profile_exit_1(self, capsys, tmp_path):
        # a block of size 3 under a declared bound of 2
        path = tmp_path / "liar.json"
        path.write_text(json.dumps({
            "blocks": [[0, 1, 2], [3, 4], [5, 6], [7, 8]],
            "rest": "singletons",
            "profile": {"kind": "bounded", "n": 2,
                        "nonsingletons": "infinite"}}))
        code, _, err = run(capsys, "--json", "classify",
                           f"stab:partition:explicit@{path}")
        assert_error_exit(code, err)

    @pytest.mark.parametrize("argv", [
        ["classify", "stab:partition:explicit@{}"],
        ["orbit", "stab:partition:explicit@{}", "--alpha", "1"]],
        ids=["classify", "orbit"])
    def test_false_infinite_block_exit_1(self, tmp_path, argv):
        # the declared infinite block holds one point, so a scan for its
        # free points stops only at the meter; a subprocess with a timeout
        # keeps a scan that never stops from stalling the suite
        path = tmp_path / "liar.json"
        path.write_text(json.dumps({
            "key": "liar", "profile": {"kind": "infinite-block", "block": 1},
            "rest": "singletons", "blocks": []}))
        stderr = run_subprocess([a.format(path) for a in argv])
        assert "form free-points" in stderr

    def test_false_finite_profile_exit_1(self, tmp_path):
        # three nonsingletons declared, one listed: the walk for the rest
        # of their union stops only at the meter
        path = tmp_path / "few.json"
        path.write_text(json.dumps({
            "key": "few", "profile": {"kind": "bounded", "n": 2, "nonsingletons": 3},
            "rest": "singletons", "blocks": [[0, 1]]}))
        stderr = run_subprocess(["classify", f"stab:partition:explicit@{path}"])
        assert "form blocks" in stderr


class TestOrbit:
    def test_pinned_pair(self, capsys):
        code, out, _ = run(capsys, "--json", "orbit", "stab:partition:pairs",
                           "--gamma", "1", "--alpha", "0")
        assert code == 0
        assert json.loads(out)["points"] == [0]

    @pytest.mark.parametrize("gamma", ["a", "-1"])
    def test_non_natural_gamma_exit_1(self, capsys, gamma):
        code, _, err = run(capsys, "orbit", "stab:partition:pairs",
                           "--gamma", gamma, "--alpha", "0")
        assert_error_exit(code, err)

    def test_negative_alpha_exit_1(self, capsys):
        code, _, err = run(capsys, "orbit", "stab:partition:pairs",
                           "--gamma", "0", "--alpha", "-1")
        assert_error_exit(code, err)


class TestMetric:
    def test_classify_sqrt(self, capsys):
        code, out, _ = run(capsys, "metric", "classify", "sqrt")
        assert code == 0
        assert "CaseII" in out

    def test_norm(self, capsys):
        code, out, _ = run(capsys, "--json", "metric", "norm",
                           "standard-omega", "--perm", "cycles:(0 5)")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_bound"] == "5"
        assert payload["certificate"] == "finite"

    def test_norm_of_a_far_word_tests_only_its_factors_points(self, capsys):
        # a scan below the support bound, 3,000,001 points, would pass the
        # norm's 10^6-step budget
        code, out, err = run(capsys, "metric", "norm", "standard-omega", "--perm",
                             "word:[cycles:(0 3000000),cycles:(1 3000000)]")
        assert (code, out, err) == (
            0, "lower_bound: 2999999\ncertificate: finite\n", "")

    def test_flow_of_a_far_word_tests_only_its_moved_points(self, capsys):
        # its standard-z bound is 1,500,000: a window of twice that around
        # every cut would pass the flow's 10^6-step budget
        code, out, err = run(capsys, "metric", "flow", "standard-z", "--perm",
                             "word:[cycles:(0 3000000),cycles:(1 3000000)]")
        assert (code, out, err) == (0, "common_value: 0\n", "")

    def test_flow(self, capsys):
        code, out, _ = run(capsys, "--json", "metric", "flow",
                           "standard-z", "--perm", "rule:shift-z")
        assert code == 0
        assert json.loads(out)["common_value"] == 1

    def test_refine(self, capsys):
        code, out, _ = run(capsys, "--json", "metric", "refine",
                           "standard-omega", "--u", "rule:swap-pairs",
                           "--pairs", "0:3", "--radius", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["distances"][0] == {"a": 0, "b": 3, "kind": "exact",
                                           "value": "3"}


class TestLocal:
    def test_breakpoints(self, capsys):
        code, out, _ = run(capsys, "--json", "local", "breakpoints",
                           "--perm", "cycles:(0 1 2)", "--count", "5")
        assert code == 0
        assert json.loads(out)["breakpoints"] == [0, 1, 3, 4, 5]

    def test_decompose_roundtrip(self, capsys):
        code, out, _ = run(capsys, "--json", "local", "decompose",
                           "--perm", "cycles:(0 1 2)")
        assert code == 0
        payload = json.loads(out)
        assert payload["product_matches_window"] is True
        assert payload["g"] == "cycles:(0 2)"

    def test_check_shift(self, capsys):
        code, out, _ = run(capsys, "local", "check", "--perm", "rule:shift-z")
        assert code == 2
        assert "no-at-budget" in out


class TestWitness:
    def test_three_cycle(self, capsys):
        code, out, _ = run(capsys, "--json", "witness", "three-cycle",
                           "--perm", "cycles:(0 1)", "--perm-b", "cycles:(1 2)")
        assert code == 0
        assert json.loads(out)["commutator"] == "cycles:(0 2 1)"

    def test_commutator(self, capsys):
        code, out, _ = run(capsys, "--json", "witness", "commutator",
                           "--pattern", "0101")
        assert code == 0
        assert json.loads(out)["matches"] is True

    def test_p_equiv(self, capsys):
        code, out, _ = run(capsys, "--json", "witness", "p-equiv",
                           "--partition", "intervals-growing", "--depth", "3")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["packing_f"]) == 3

    def test_q_equiv(self, capsys):
        code, out, _ = run(capsys, "--json", "witness", "q-equiv",
                           "--partition", "pairs", "--depth", "6")
        assert code == 0


class TestTree:
    def test_build_binary(self, capsys):
        code, out, _ = run(capsys, "--json", "tree", "build", "--mode",
                           "binary", "--depth", "4", "--oracle", "stab-a0")
        assert code == 0
        payload = json.loads(out)
        assert payload["nodes"] == 2 ** 5 - 1
        assert len(payload["alphas"]) == 4

    def test_branch(self, capsys):
        code, out, _ = run(capsys, "--json", "tree", "branch", "--mode",
                           "binary", "--depth", "4", "--oracle", "stab-a0",
                           "--choice", "1010")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["pivot_images"]) == 4

    def test_s_and_verify(self, capsys):
        code, out, _ = run(capsys, "--json", "tree", "s",
                           "--breakpoints", "0,1,3", "--depth", "2")
        assert code == 0
        code, out, _ = run(capsys, "--json", "tree", "verify",
                           "--breakpoints", "0,1,3", "--depth", "2",
                           "--pi", "1:2,2:1", "--window", "3")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_unknown_oracle_exit_1(self, capsys):
        code, _, err = run(capsys, "tree", "build", "--oracle", "bogus")
        assert_error_exit(code, err)


class TestPerm:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "perm", "eval", "--perm",
                           "word:[cycles:(0 1),cycles:(1 2)]", "--point", "0")
        assert code == 0
        assert "0 -> 2" in out

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "--json", "perm", "verify", "--perm",
                           "rule:swap-pairs", "--window", "100")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_bad_args_exit(self, capsys):
        assert cli_main(["perm", "eval"]) == 1  # missing --perm
        capsys.readouterr()

    def test_negative_point_exit_1(self, capsys):
        code, _, err = run(capsys, "perm", "eval", "--perm", "rule:shift-z",
                           "--point", "-1")
        assert_error_exit(code, err)


# explicit partition files that break the format, by file name
_REST = '"rest": "singletons"'
PARTITION_FILES = {
    "not-json.json": "{",
    "list.json": "[]",
    "no-blocks.json": '{"profile": {"kind": "bounded", "n": 2}, %s}' % _REST,
    "empty-block.json":
        '{"profile": {"kind": "bounded", "n": 2}, %s, "blocks": [[]]}' % _REST,
    "n-abc.json":
        '{"profile": {"kind": "bounded", "n": "abc"}, %s, "blocks": []}' % _REST,
    "nonsingletons-lots.json": '{"profile": {"kind": "bounded", "n": 2, '
        '"nonsingletons": "lots"}, %s, "blocks": [[0, 1]]}' % _REST,
    "nonsingletons-negative.json": '{"profile": {"kind": "bounded", "n": 2, '
        '"nonsingletons": -1}, %s, "blocks": [[0, 1]]}' % _REST,
    "negative-point.json": '{"profile": {"kind": "bounded", "n": 2, '
        '"nonsingletons": 0}, %s, "blocks": [[-2, 5]]}' % _REST,
    "block-abc.json": '{"profile": {"kind": "infinite-block", "block": "abc"}, '
        '%s, "blocks": []}' % _REST,
}


@pytest.mark.parametrize("argv", [
    ["perm", "eval", "--perm", "rule:block-rotate;size=0"],
    ["perm", "eval", "--perm", "rule:block-rotate;size=abc"],
    ["perm", "eval", "--perm", "cycles:(0 1)(1 2)"],
    ["perm", "eval", "--perm", "cycles:(0 -1)"],
    ["metric", "refine", "standard-omega", "--pairs", "0-1"],
    ["witness", "commutator", "--pattern", "01x"],
    ["tree", "branch", "--oracle", "stab-a0", "--choice", "1x1"],
    ["tree", "verify", "--oracle", "stab-a0", "--pi", "1-2"],
    ["metric", "classify", "standard-omega", "--radius", "x"],
    ["metric", "refine", "standard-omega", "--radius", "x"],
    ["metric", "refine", "standard-omega", "--radius", "1/0"],
    ["classify", "full", "--budget", "65"],
    ["--window", "-5", "local", "decompose", "--perm", "cycles:(0 1)"],
    ["--window", "-3", "metric", "norm", "standard-omega",
     "--perm", "cycles:(0 5)"],
    ["local", "decompose", "--perm", "cycles:(0 1)", "--window", "0"],
    ["tree", "build", "--depth", "0"],
    ["tree", "build", "--depth", "-1"],
    ["tree", "s", "--depth", "0"],
    ["local", "breakpoints", "--perm", "cycles:(0 1)", "--count", "0"],
    ["metric", "classify", "sqrt", "--centers", "-1"],
    ["classify", "full", "--budget", "0"],
    ["witness", "even-shift"],
    ["metric", "norm", "standard-omega"],
    ["metric", "flow", "standard-z"],
    ["witness", "three-cycle"],
    ["orbit", "full", "--alpha", "0", "--budget", "65537"],
] + [["classify", f"stab:partition:explicit@<dir>/{name}"]
     for name in ["missing.json", *PARTITION_FILES]], ids=["rotate-size-0", "rotate-size-abc", "overlapping-cycles",
        "negative-cycle-point", "refine-pair-dash", "pattern-non-bit",
        "branch-choice", "verify-pi", "classify-radius", "refine-radius",
        "refine-radius-zero-denominator", "budget-over-ceiling",
        "window-negative", "norm-window-negative", "window-zero",
        "depth-zero", "depth-negative", "e-tree-depth-zero", "count-zero",
        "centers-negative", "budget-zero", "even-shift-no-partition",
        "norm-no-perm", "flow-no-perm", "three-cycle-no-perm",
        "orbit-budget-over-ceiling", "partition-file-missing",
        *(f"partition-file-{name[:-5]}" for name in PARTITION_FILES)])
def test_malformed_input_exit_1(capsys, tmp_path, argv):
    for name, text in PARTITION_FILES.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, *(a.replace("<dir>", str(tmp_path)) for a in argv))
    assert_error_exit(code, err)


def test_budget_exhausted_exit_1(capsys):
    with evaluation_budget(1):
        code, _, err = run(capsys, "perm", "eval", "--perm",
                           "word:[cycles:(0 1),cycles:(1 2)]", "--point", "0")
    assert_error_exit(code, err)
    assert err == "error: evaluation step budget exhausted: limit 1, form cycles\n"


class TestReproducibility:
    def test_same_input_same_output(self, capsys):
        a = run(capsys, "--json", "classify", "stab:partition:a0")
        b = run(capsys, "--json", "classify", "stab:partition:a0")
        assert a == b
