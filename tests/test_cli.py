import contextlib
import gc
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import symkit
from symkit.cli import SIZE_CEILINGS, cli_main
from symkit.metrics import BUILTIN_METRICS, CENTERS_CAP, parse_metric
from symkit.partitions import BUILTIN_PARTITIONS
from symkit.perm import evaluation_budget


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_error_exit(code, err):
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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

    @pytest.mark.parametrize("desc,label", [
        ("fix(full;3)", "C_S"), ("fix(gens:[cycles:(0 1 2)];5)", "C_1"),
        ("fix(fn:standard-omega;7)", "C_Q")])
    def test_fix_takes_the_inner_label_exit_0(self, capsys, desc, label):
        code, out, _ = run(capsys, "--json", "classify", desc)
        assert code == 0
        payload = json.loads(out)
        assert (payload["label"], payload["certified"]) == (label, True)
        assert payload["replay_ok"] is True

    def test_unknown_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "oracle:full-sym")
        assert code == 2

    @pytest.mark.parametrize("gamma", ["0,2,4", ",".join(map(str, range(1, 258)))],
                             ids=["three-points", "window-rule-c1"])
    def test_uncertified_label_exit_2(self, capsys, gamma):
        # a label read off the window budget carries no certificate; the
        # window rule's C_1 for 1..257 is even wrong (the class is C_Q)
        code, out, _ = run(capsys, "classify", f"fix(stab:partition:pairs;{gamma})")
        assert code == 2
        assert "certified: False" in out

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
    def test_false_infinite_block_exit_1(self, capsys, tmp_path, argv):
        # a file lists finitely many finite blocks, so no block is infinite
        path = tmp_path / "liar.json"
        path.write_text(json.dumps({
            "key": "liar", "profile": {"kind": "infinite-block", "block": 1},
            "rest": "singletons", "blocks": []}))
        code, _, err = run(capsys, *(a.format(path) for a in argv))
        assert_error_exit(code, err)
        assert "declares a false profile" in err

    def test_false_finite_profile_exit_1(self, capsys, tmp_path):
        # three nonsingletons declared, one listed
        path = tmp_path / "few.json"
        path.write_text(json.dumps({
            "key": "few", "profile": {"kind": "bounded", "n": 2, "nonsingletons": 3},
            "rest": "singletons", "blocks": [[0, 1]]}))
        code, _, err = run(capsys, "classify",
                           f"stab:partition:explicit@{path}")
        assert_error_exit(code, err)
        assert "declares a false profile" in err


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

    @pytest.mark.parametrize("radius", ["20000", "300000"])
    def test_classify_radius_past_the_cap_names_overflow(self, capsys, radius):
        # standard-omega declares CaseIII; the first ball of a radius past
        # the cap is refused before any point is listed, and ends its listing
        start = time.perf_counter()
        code, out, _ = run(capsys, "--json", "metric", "classify",
                           "standard-omega", "--radius", radius)
        assert time.perf_counter() - start < 1.0
        payload = json.loads(out)
        assert code == 0 and payload["case"] == "CaseIII"
        assert payload["evidence"]["overflow"] == [{"center": 0, "radius": radius}]

    @pytest.mark.parametrize("argv,case,code,seconds", [
        (["sqrt", "--radius", "1000"], "CaseII", 0, 1.0),
        (["refine(partition@spread)"], "Unknown", 2, 0.1),
        (["refine(discrete;U=[rule:swap-pairs])"], "Unknown", 2, 0.1),
        (["refine(refine(standard-omega;U=[rule:swap-pairs]);U=[rule:shift-z])"],
         "Unknown", 2, 0.1),
    ], ids=["sqrt-past-the-cap", "refine-spread", "refine-discrete", "refine-nested"])
    def test_classify_answers_the_declared_case(self, capsys, argv, case, code,
                                                seconds):
        start = time.perf_counter()
        got, out, _ = run(capsys, "--json", "metric", "classify", *argv)
        assert time.perf_counter() - start < seconds
        assert (got, json.loads(out)["case"]) == (code, case)

    def test_refine_refuses_a_huge_block_unlisted(self, capsys):
        # 10^16 lies in a spread block of 141,421,352 points
        start = time.perf_counter()
        code, _, err = run(capsys, "metric", "refine", "partition@spread",
                           "--pairs", f"{10 ** 16}:0", "--radius", "2")
        assert time.perf_counter() - start < 1.0
        assert_error_exit(code, err)
        assert err == "error: ball exceeds cap\n"

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

    def test_check_without_certificate_exit_2(self, capsys):
        # invariant prefixes all through the probe are no certificate
        code, out, _ = run(capsys, "local", "check", "--perm", "rule:swap-pairs")
        assert code == 2
        assert "answer: unknown" in out


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
    ["tree", "verify", "--breakpoints", "0,2", "--pi", "0:1"],
    ["metric", "classify", "standard-omega", "--radius", "x"],
    ["metric", "refine", "standard-omega", "--radius", "x"],
    ["metric", "refine", "standard-omega", "--radius", "1/0"],
    ["metric", "classify", "standard-omega", "--radius=-1"],
    ["metric", "classify", "standard-z", "--radius", "0"],
    ["metric", "refine", "standard-omega", "--pairs", "0:5", "--radius=-3"],
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
    ["metric", "classify", "sqrt", "--budget", "262145"],
    ["metric", "classify", "sqrt", "--centers", "100000000"],
    ["witness", "even-shift", "--partition", "spread", "--depth", "10000000"],
    ["classify", "fn:refine(standard-omega;U=[rule:swap-pairs];U=[rule:shift-z])"],
] + [["classify", f"stab:partition:explicit@<dir>/{name}"]
     for name in ["missing.json", *PARTITION_FILES]], ids=["rotate-size-0", "rotate-size-abc", "overlapping-cycles",
        "negative-cycle-point", "refine-pair-dash", "pattern-non-bit",
        "branch-choice", "verify-pi", "verify-pi-not-one-to-one",
        "classify-radius", "refine-radius",
        "refine-radius-zero-denominator", "classify-radius-negative",
        "classify-radius-zero", "refine-radius-negative", "budget-over-ceiling",
        "window-negative", "norm-window-negative", "window-zero",
        "depth-zero", "depth-negative", "e-tree-depth-zero", "count-zero",
        "centers-negative", "budget-zero", "even-shift-no-partition",
        "norm-no-perm", "flow-no-perm", "three-cycle-no-perm",
        "orbit-budget-over-ceiling", "metric-budget-over-ceiling",
        "centers-over-ceiling", "even-shift-past-the-meter",
        "refine-third-part", "partition-file-missing",
        *(f"partition-file-{name[:-5]}" for name in PARTITION_FILES)])
def test_malformed_input_exit_1(capsys, tmp_path, argv):
    for name, text in PARTITION_FILES.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, *(a.replace("<dir>", str(tmp_path)) for a in argv))
    assert_error_exit(code, err)


def run_process(*argv):
    """Exit code, stdout, stderr and wall seconds of ``python -m symkit`` in
    a fresh process, killed after 10 s."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(symkit.__file__))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "symkit", *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


@pytest.mark.parametrize("argv,answer", [
    (["local", "decompose", "--perm", "cycles:(0 1 2)", "--window", "100000000"],
     "g: cycles:(0 2)\nh: cycles:(1 2)\nproduct ok on window 100000000: True\n"),
    (["witness", "p-equiv", "--partition", "intervals-growing", "--window",
      "100000000"], None),
    (["witness", "even-shift", "--partition", "spread", "--window", "100000000"], None),
    (["local", "decompose", "--perm", "cycles:(0 1 2)", "--count", "100000000"], None),
    (["local", "breakpoints", "--perm", "cycles:(0 1 2)", "--count", "100000000"], None),
    (["local", "decompose", "--perm", "cycles:(0 1)(30000000 30000001)"], None),
    (["local", "check", "--perm", "word:[cycles:(0 1)]", "--window", "100000000"], None),
], ids=["decompose-window", "p-equiv-window", "even-shift-window",
        "decompose-count", "breakpoints-count", "decompose-far-support",
        "check-certified-word-window"])
def test_huge_window_or_count_ends(argv, answer):
    # a certified permutation is scanned only below its support bound, each
    # window loop runs under one meter, and --count has a ceiling.  The
    # uncertified witnesses stop at the meter's 10^6 points, and so do the
    # breakpoint walk below a far support and the locality probe past a
    # certified word's bound, which charge a step per breakpoint or prefix;
    # without these bounds each call runs for minutes, past run_process's
    # 10 s kill.
    code, out, err, _ = run_process(*argv)
    assert "Traceback" not in err
    if answer is None:
        assert_error_exit(code, err)
    else:
        assert (code, out, err) == (0, answer, "")


def test_count_ceiling(capsys):
    code, out, _ = run(capsys, "--json", "local", "breakpoints", "--perm",
                       "cycles:(0 1 2)", "--count", str(SIZE_CEILINGS["count"]))
    assert code == 0 and json.loads(out)["breakpoints"][:4] == [0, 1, 3, 4]
    code, _, err = run(capsys, "local", "breakpoints", "--perm", "cycles:(0 1 2)",
                       "--count", str(SIZE_CEILINGS["count"] + 1))
    assert_error_exit(code, err)
    assert err == "error: --count must be at most 65536, got 65537\n"


CLASSIFY_SPECS = [*BUILTIN_METRICS, *(f"partition@{key}" for key in BUILTIN_PARTITIONS
                                     if key != "evens-block"),
                  "refine(standard-omega;U=[rule:swap-pairs])",
                  "refine(discrete;U=[rule:swap-pairs])", "refine(partition@spread)",
                  "refine(cayley-z2)"]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CLASSIFY_SPECS),
       st.lists(st.integers(-5, 300000), min_size=1, max_size=3),
       st.integers(1, CENTERS_CAP) | st.integers(1, 10**8))
def test_metric_classify_cli_fuzz(capsys, spec, radii, centers):
    start = time.perf_counter()
    code, out, err = run(capsys, "--json", "metric", "classify", spec,
                         "--radius=" + ",".join(map(str, radii)), "--centers", str(centers))
    assert time.perf_counter() - start < 10
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert_error_exit(code, err)
    else:
        declared = parse_metric(spec).case
        assert json.loads(out)["case"] == (declared if code == 0 else "Unknown")
        assert (code == 0) == (declared is not None)


E_CHAINS = st.lists(st.integers(0, 4), max_size=5).map(
    lambda widths: [0, *itertools.accumulate(widths)])
ANY_POINTS = st.lists(st.integers(0, 12) | st.integers(0, 10**18), max_size=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(E_CHAINS | ANY_POINTS | ANY_POINTS.map(lambda points: [0, *points]),
       st.sampled_from(["s", "verify"]), st.none() | st.integers(-2, 8),
       st.none() | st.integers(-2, 20) | st.integers(0, 10**18),
       st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=4),
       st.booleans())
def test_tree_cli_fuzz(capsys, breakpoints, action, depth, window, pi, as_json):
    argv = ["--json"] * as_json + [
        "tree", action, "--breakpoints=" + ",".join(map(str, breakpoints))]
    if depth is not None:
        argv.append(f"--depth={depth}")
    if window is not None:
        argv.append(f"--window={window}")
    if pi:
        argv.append("--pi=" + ",".join(f"{a}:{b}" for a, b in pi))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1 and not out:
        assert_error_exit(code, err)


FAR_POINTS = st.integers(0, 12) | st.integers(0, 10**8)
LOCAL_PERMS = st.recursive(
    st.lists(st.lists(FAR_POINTS, min_size=2, max_size=3, unique=True), max_size=3).map(
        lambda cycles: "cycles:" + "".join(f"({' '.join(map(str, c))})" for c in cycles))
    | st.sampled_from(["rule:swap-pairs", "rule:shift-z", "rule:block-rotate;size=3",
                       "rule:identity"]),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda specs: f"word:[{','.join(specs)}]")
    | inner.map(lambda spec: f"word:[{spec}]^-1" if spec.endswith("^-1") else spec + "^-1"),
    max_leaves=4)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["decompose", "breakpoints", "check"]), LOCAL_PERMS,
       st.none() | st.integers(-2, 20) | st.integers(0, 10**5),
       st.none() | st.integers(-2, 300) | st.integers(0, 10**8), st.booleans())
@example("decompose", "cycles:(0 1)(30000000 30000001)", None, None, False)
def test_local_cli_fuzz(capsys, action, spec, count, window, as_json):
    # far-support cycles, huge windows and counts end at the meter, which a
    # small budget makes cheap; before the breakpoint walk charged, a cycle
    # far out ran one unmetered step per natural number below it
    argv = ["--json"] * as_json + ["local", action, "--perm", spec]
    if count is not None:
        argv.append(f"--count={count}")
    if window is not None:
        argv.append(f"--window={window}")
    start = time.perf_counter()
    with evaluation_budget(20_000):
        code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert_error_exit(code, err)


def test_budget_exhausted_exit_1(capsys):
    with evaluation_budget(1):
        code, _, err = run(capsys, "perm", "eval", "--perm",
                           "word:[cycles:(0 1),cycles:(1 2)]", "--point", "0")
    assert_error_exit(code, err)
    assert err == "error: evaluation step budget exhausted: limit 1, form cycles\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_command_runs_without_collections(capsys, enabled):
    """No cyclic collection starts inside a command, and the collector is
    left as it was found, after an error too.  A tree build makes thousands
    of tracked objects, so with the collector running it would start some."""
    def inside(frame):
        while frame is not None and frame.f_code is not cli_main.__code__:
            frame = frame.f_back
        return frame is not None

    started = []
    watch = lambda phase, info: started.append(inside(sys._getframe()))
    gc.callbacks.append(watch)
    (gc.enable if enabled else gc.disable)()
    try:
        code, out, _ = run(capsys, "tree", "build", "--mode", "binary", "--depth", "6")
        assert (code, out.splitlines()[1]) == (0, "nodes: 127")
        assert not any(started) and gc.isenabled() == enabled
        assert_error_exit(*run(capsys, "classify", "nonsense:")[::2])
        assert gc.isenabled() == enabled
    finally:
        gc.callbacks.remove(watch)
        gc.enable()

class TestReproducibility:
    def test_same_input_same_output(self, capsys):
        a = run(capsys, "--json", "classify", "stab:partition:a0")
        b = run(capsys, "--json", "classify", "stab:partition:a0")
        assert a == b


# --------------------------------------------------------------------------
# CLI goldens for the README lines, TREE_EXAMPLES and LOCAL_EXAMPLES: a spec
# change edits a file under tests/golden/ in plain sight.
# ``python tests/test_cli.py`` rewrites them from the current code.

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parents[1] / "README.md"


def _readme_examples():
    """Each README ``symkit …`` line's arguments, without ``--json``, by name."""
    lines = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("symkit ")]
    examples = {}
    for k, line in enumerate(lines, 1):
        argv = [a for a in shlex.split(line.split("#")[0])[1:] if a != "--json"]
        examples[f"{k:02d}-" + re.sub(r"[^a-z0-9]+", "-", " ".join(argv[:2]))] = argv
    return examples


def _golden_text(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return (f"$ symkit {shlex.join(argv)}\nexit: {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


# Tree cases the README does not show: deeper builds of every mode.
TREE_EXAMPLES = {name: shlex.split(line) for name, line in {
    "tree-build-inf-8": "tree build --mode inf --depth 8 --oracle full-sym",
    "tree-build-unbounded-5":
        "tree build --mode unbounded --depth 5 --oracle full-sym",
    "tree-build-binary-8":
        "tree build --mode binary --depth 8 --oracle stab-pairs",
    "tree-branch-inf-6":
        "tree branch --mode inf --depth 6 --oracle full-sym --choice 000000",
}.items()}

# Local factors the README does not show: blocks paired on request for an
# uncertified f, and a certified word's blocks paired when g is built.
LOCAL_EXAMPLES = {f"local-{action}-{name}": ["local", action, "--perm", spec]
                  for name, spec in {
                      "block-rotate-3": "rule:block-rotate;size=3",
                      "rotate-swap-word": "word:[rule:block-rotate;size=3,rule:swap-pairs]",
                      "shift-z": "rule:shift-z",
                      "swap-pairs-inverse": "rule:swap-pairs^-1",
                      "certified-word": "word:[cycles:(0 7 2)(10 13),cycles:(1 12)(20 25)]",
                  }.items()
                  for action in ("decompose", "breakpoints")}

GOLDEN_CASES = [(f"{name}{suffix}", flags + argv)
                for name, argv in {**_readme_examples(), **TREE_EXAMPLES,
                                   **LOCAL_EXAMPLES}.items()
                for suffix, flags in (("", []), (".json", ["--json"]))]


def test_readme_examples_cover_the_cli_block():
    assert len(GOLDEN_CASES) == 2 * (16 + 4 + 10)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == \
        sorted(name for name, _ in GOLDEN_CASES)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[n for n, _ in GOLDEN_CASES])
def test_readme_example_matches_golden(name, argv):
    assert _golden_text(argv) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in GOLDEN_CASES:
        (GOLDEN / f"{name}.txt").write_text(_golden_text(argv), encoding="utf-8")
