import ast
import contextlib
import copy
import functools
import io
import json
import pathlib
import shlex
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symkit.chain as chain
import symkit.classifier as classifier
import symkit.metrics as metrics
from symkit.classifier import (
    CLASS_ORDER,
    LAMBDA_CASE,
    PartitionStab,
    PointwiseStab,
    check_evidence,
    classify_group,
    compactness_criterion,
    discreteness,
    orbit,
    parse_descriptor,
)
from symkit.cli import cli_main
from symkit.errors import ParseError, PreconditionError, ProfileViolationError
from symkit.partitions import BoundedBy, Partition, explicit


def classify(s, budgets=None):
    return classify_group(parse_descriptor(s), budgets)


CERTIFIED = [
    ("full", "C_S"),
    ("trivial", "C_1"),
    ("stab:partition:pairs", "C_Q"),
    ("stab:partition:a0", "C_Q"),
    ("stab:partition:intervals-growing", "C_P"),
    ("fn:standard-omega", "C_Q"),
    ("fn:standard-z", "C_Q"),
    ("fn:metric:partition@pairs", "C_Q"),
    ("fn:metric:partition@intervals-growing", "C_P"),
    ("fn:discrete", "C_1"),
    ("gens:[cycles:(0 1 2)]", "C_1"),
    ("gens:[]", "C_1"),
]

# every other block of [0, 520) pinned: trivial as far as the budget looks
BUDGET_TRIVIAL_FIX = "fix(stab:partition:pairs;{})".format(
    ",".join(str(p) for p in range(0, 520, 2)))

REPLAY_CORPUS = [desc for desc, _ in CERTIFIED] + [
    "fix(stab:partition:pairs;0,2,4)", BUDGET_TRIVIAL_FIX,
    "fix(fix(full;3);5,7)",
    "stab:partition:evens-block", "oracle:full-sym"]

BASES = tuple(classifier.BASES)

FORGED = [
    ("full", {"label": "C_1", "basis": "trivial-group"}),
    ("full", {"label": "C_1", "basis": "fn-discrete"}),
    ("stab:partition:pairs",
     {"label": "C_1", "basis": "partition-finite-nonsingletons"}),
    ("stab:partition:intervals-growing",
     {"label": "C_S", "basis": "partition-infinite-block", "probes": []}),
]


@functools.lru_cache(maxsize=None)
def _record(desc):
    return classify(desc).evidence()


def _perturb(value):
    """A value of the same shape as value that differs from it."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value + [0]
    return {**value, "x": 0}


class TestOrbit:
    def test_full_s_infinite(self):
        rep = orbit(parse_descriptor("full"), [0], 1, budget=64)
        assert rep.kind == "atleast" and rep.size == 64
        assert 0 not in rep.points

    def test_pairs_block_orbit(self):
        rep = orbit(parse_descriptor("stab:partition:pairs"), [], 0, 64)
        assert rep.kind == "full" and rep.points == [0, 1]

    def test_pinned_block(self):
        # stabilizing 1 pins the block {0, 1}: brute force over Sym({0,1})
        # elements fixing 1 leaves only the identity
        rep = orbit(parse_descriptor("stab:partition:pairs"), [1], 0, 64)
        assert rep.kind == "full" and rep.points == [0]

    def test_fix_composes(self):
        rep = orbit(parse_descriptor("fix(stab:partition:pairs;1)"), [], 0, 64)
        assert rep.points == [0]

    def test_gens_orbit(self):
        rep = orbit(parse_descriptor("gens:[cycles:(0 1 2)]"), [], 0, 64)
        assert rep.points == [0, 1, 2]
        rep2 = orbit(parse_descriptor("gens:[cycles:(0 1 2)]"), [1], 0, 64)
        assert rep2.points == [0]

    def test_monotone_in_gamma(self):
        for desc in ("full", "stab:partition:pairs", "stab:partition:a0",
                     "gens:[cycles:(0 1 2),cycles:(2 3)]"):
            d = parse_descriptor(desc)
            for alpha in (0, 1, 2, 5):
                small = orbit(d, [], alpha, 128)
                for gamma in ([0], [0, 1], [0, 1, 2, 3]):
                    big = orbit(d, gamma, alpha, 128)
                    assert big.size <= small.size or big.kind == "atleast"
                    if big.kind == "full" and small.kind == "full":
                        assert set(big.points) <= set(small.points)


class TestClassify:
    @pytest.mark.parametrize("desc,label", CERTIFIED)
    def test_certified_labels(self, desc, label):
        lab = classify(desc)
        assert lab.label == label
        assert lab.certified
        assert lab.lambda_case == LAMBDA_CASE[label]
        assert check_evidence(desc, lab.evidence())

    def test_unknowns(self):
        assert classify("oracle:full-sym").label == "Unknown"
        assert classify("fn:sqrt").label == "Unknown"
        assert classify("fn:sqrt").samples["metric_case"] == "CaseII"

    def test_initial_segment_invariance(self):
        for desc in ("stab:partition:pairs", "stab:partition:a0",
                     "stab:partition:intervals-growing"):
            base = classify(desc)
            fixed = classify(f"fix({desc};0,1,2)")
            assert fixed.label == base.label
            assert fixed.certified
            assert check_evidence(f"fix({desc};0,1,2)", fixed.evidence())

    def test_budget_trivial_fix(self):
        desc = BUDGET_TRIVIAL_FIX
        lab = classify(desc)
        assert lab.label == "C_1"
        assert not lab.certified
        assert lab.basis == "budget-trivial"
        assert check_evidence(desc, lab.evidence())

    def test_nested_fix_is_the_fix_of_the_union(self):
        # fix(fix(D;Γ1);Γ2) and fix(D;Γ1 ∪ Γ2) are one group, so one record
        desc = "fix(fix(stab:partition:pairs;0,2,4);{})".format(
            ",".join(str(p) for p in range(6, 520, 2)))
        lab = classify(desc)
        assert lab.evidence() == classify(BUDGET_TRIVIAL_FIX).evidence()
        assert lab.basis == "budget-trivial"
        assert check_evidence(desc, lab.evidence())

    def test_partial_fix_keeps_surviving_orbits(self):
        desc = "fix(stab:partition:pairs;0,2,4)"
        lab = classify(desc)
        assert lab.label == "C_Q" and not lab.certified
        assert check_evidence(desc, lab.evidence())

    def test_fix_infinite_block_is_cs(self):
        # the infinite block keeps an infinite orbit off any finite gamma
        desc = "fix(stab:partition:evens-block;1,3)"
        lab = classify(desc)
        assert (lab.label, lab.certified) == ("C_S", True)
        assert lab.basis == "pointwise-stabilizer"
        assert lab.gamma == [1, 3]
        assert lab.samples["inner"]["basis"] == "partition-infinite-block"
        assert check_evidence(desc, lab.evidence())
        assert check_evidence(desc, json.loads(json.dumps(lab.evidence())))

    @pytest.mark.parametrize("desc", [
        "fix(stab:partition:explicit@{};5)", "fix(stab:partition:singletons;1,3)"],
        ids=["one-pair-file", "singletons"])
    def test_fix_of_finitely_many_nonsingletons_is_certified_c1(
            self, tmp_path, desc):
        # G_(Γ)_(Δ) = G_(Γ ∪ Δ): the union that pins G pins G_(Γ) too
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "key": "one", "blocks": [[0, 1]], "rest": "singletons",
            "profile": {"kind": "bounded", "n": 2, "nonsingletons": 1}}))
        desc = desc.format(path)
        lab = classify(desc)
        assert (lab.label, lab.certified) == ("C_1", True)
        assert lab.basis == "pointwise-stabilizer"
        assert lab.samples["inner"]["basis"] == "partition-finite-nonsingletons"
        assert check_evidence(desc, lab.evidence())

    def test_undeclared_nonsingleton_refused(self):
        # two pairs declared as one: fixing [0, 1] would leave the orbit [2, 3]
        A = explicit([[0, 1], [2, 3]], BoundedBy(2, 1), key="under")
        with pytest.raises(ProfileViolationError, match="block 2"):
            classify_group(PartitionStab(A, A.key))

    def test_declared_block_past_the_size_bound_refused(self):
        # a block of three under a declared bound of two: the partition
        # metric's uniform_bound(2) would be 2 for a ball of three points
        A = explicit([[0, 1, 2]], BoundedBy(2, 1), key="oversized")
        with pytest.raises(ProfileViolationError, match="size 3 > declared bound 2"):
            classify_group(PartitionStab(A, A.key))

    def test_finite_nonsingleton_partition_is_countable(self):
        import json

        payload = {"blocks": [[0, 1], [2, 3]], "rest": "singletons",
                   "profile": {"kind": "bounded", "n": 2, "nonsingletons": 2}}
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump(payload, fh)
            path = fh.name
        try:
            lab = classify(f"stab:partition:explicit@{path}")
            assert lab.label == "C_1" and lab.certified
        finally:
            os.unlink(path)


class TestOrdering:
    def test_chain(self):
        assert CLASS_ORDER == ("C_1", "C_Q", "C_P", "C_S")


class TestEvidence:
    def test_tampered_label_rejected(self):
        lab = classify("stab:partition:pairs")
        ev = lab.evidence()
        ev["label"] = "C_P"
        assert not check_evidence("stab:partition:pairs", ev)

    def test_tampered_probe_rejected(self):
        lab = classify("full")
        ev = lab.evidence()
        ev["probes"][0]["kind"] = "full"
        assert not check_evidence("full", ev)

    def test_tampered_samples_rejected(self):
        lab = classify("stab:partition:pairs")
        ev = lab.evidence()
        pairs = [list(p) for p in ev["samples"]["nonsingleton_blocks"]]
        pairs[0][1] = 9
        ev["samples"]["nonsingleton_blocks"] = pairs
        assert not check_evidence("stab:partition:pairs", ev)

    def test_wrong_descriptor_rejected(self):
        lab = classify("stab:partition:pairs")
        assert not check_evidence("stab:partition:intervals-growing",
                                  lab.evidence())

    @pytest.mark.parametrize("desc,record", FORGED,
                             ids=[r["basis"] for _, r in FORGED])
    def test_forged_record_rejected(self, desc, record):
        assert not check_evidence(desc, record)

    def test_overlong_sample_list_refused_unread(self):
        # 100,000 true growing blocks: more than the producer samples
        desc = "stab:partition:intervals-growing"
        record = copy.deepcopy(_record(desc))
        record["samples"]["growing_blocks"] = [
            [k * (k + 1) // 2, k + 1] for k in range(100_000)]
        start = time.perf_counter()
        assert not check_evidence(desc, record)
        assert time.perf_counter() - start < 1.0

    def test_overlong_c1_gamma_refused_unread(self, monkeypatch):
        # singletons declare no nonsingleton block, so any γ is too long
        def refuse(*args):
            raise AssertionError("a point of the forged γ was read")

        desc = "stab:partition:singletons"
        record = {**_record(desc), "gamma": list(range(10 ** 6))}
        monkeypatch.setattr(Partition, "block_of", refuse)
        monkeypatch.setattr(Partition, "block_members", refuse)
        start = time.perf_counter()
        assert not check_evidence(desc, record)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("size_delta,accepted", [(0, True), (1, False)])
    def test_huge_sampled_block_is_sized_unlisted(self, size_delta, accepted):
        # the last sample is the block of tri(10^8), 10^8 + 1 points
        desc, k = "stab:partition:intervals-growing", 10 ** 8
        record = copy.deepcopy(_record(desc))
        record["samples"]["growing_blocks"][-1] = [
            k * (k + 1) // 2, k + 1 + size_delta]
        start = time.perf_counter()
        assert check_evidence(desc, record) == accepted
        assert time.perf_counter() - start < 1.0

    def test_unknown_budget_key_rejected(self):
        assert not check_evidence("full", {"label": "C_S",
                                           "basis": "full-symmetric",
                                           "budgets": {"bogus": 1}})

    # an orbit_budget of 10**6 costs a replay about a second, and samples 0
    # would divide the fix(...) window step by zero
    @pytest.mark.parametrize("desc,budgets", [
        ("full", {"orbit_budget": 10**6}),
        ("fix(stab:partition:pairs;1,3)", {"samples": 0}),
    ], ids=["over-ceiling", "under-floor"])
    def test_budget_out_of_range_rejected_before_classifying(
            self, monkeypatch, desc, budgets):
        def refuse(*args):
            raise AssertionError("classified at an out-of-range budget")

        monkeypatch.setattr(classifier, "classify_group", refuse)
        assert not check_evidence(desc, {"label": "C_S", "basis": "x",
                                         "budgets": budgets})

    @pytest.mark.parametrize("name", sorted(classifier.BUDGET_LIMITS))
    def test_budget_limits(self, name):
        least, most = classifier.BUDGET_LIMITS[name]
        assert getattr(classifier.Budgets(**{name: least}), name) == least
        assert getattr(classifier.Budgets(**{name: most}), name) == most
        for bad in (least - 1, most + 1, str(most), True):
            with pytest.raises(PreconditionError):
                classifier.Budgets(**{name: bad})

    def test_probe_without_alpha_rejected(self):
        ev = classify("full").evidence()
        del ev["probes"][0]["alpha"]
        assert not check_evidence("full", ev)

    def test_worked_example_needs_case_iii(self, monkeypatch):
        monkeypatch.setattr(metrics.StandardOmega, "case", "CaseII")
        lab = classify("fn:standard-omega")
        assert lab.label == "Unknown" and lab.basis == "fn-open"

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_every_mutation_rejected(self, data):
        desc = data.draw(st.sampled_from(REPLAY_CORPUS))
        record = _record(desc)
        assert check_evidence(desc, record)
        assert check_evidence(desc, json.loads(json.dumps(record)))
        forged = copy.deepcopy(record)
        where = ["label", "basis", "gamma"]
        where += ["probe"] if forged["probes"] else []
        where += ["samples"] if forged["samples"] else []
        what = data.draw(st.sampled_from(where))
        if what == "label":
            forged["label"] = data.draw(st.sampled_from(
                [x for x in CLASS_ORDER + ("Unknown",)
                 if x != record["label"]]))
        elif what == "basis":
            forged["basis"] = data.draw(st.sampled_from(
                [b for b in BASES if b != record["basis"]]))
        elif what == "gamma":
            forged["gamma"].append(data.draw(st.integers(0, 600)))
        elif what == "probe":
            probe = data.draw(st.sampled_from(forged["probes"]))
            key = data.draw(st.sampled_from(["kind", "size", "points"]))
            if key == "kind":
                probe["kind"] = data.draw(st.sampled_from(
                    [k for k in ("full", "atleast", "unknown")
                     if k != probe["kind"]]))
            elif key == "size":
                probe["size"] += data.draw(st.integers(-8, 8).filter(bool))
            else:
                i = data.draw(st.integers(0, len(probe["points"]) - 1))
                probe["points"][i] += data.draw(st.integers(1, 8))
        else:
            key = data.draw(st.sampled_from(sorted(forged["samples"])))
            forged["samples"][key] = _perturb(forged["samples"][key])
        assert not check_evidence(desc, forged)


class TestDiscreteness:
    def test_trivial_yes(self):
        assert discreteness(parse_descriptor("trivial")).answer == "yes"

    def test_pairs_no_with_witness(self):
        v = discreteness(parse_descriptor("stab:partition:pairs"))
        assert v.answer == "no"
        # each probed set leaves the transposition of a fresh block
        for wit in v.evidence["witnesses"]:
            a, b = wit["moved"]
            assert a not in wit["gamma"] and b not in wit["gamma"]
            assert b == a + 1 and a % 2 == 0

    def test_oracle_unknown(self):
        assert discreteness(parse_descriptor("oracle:full-sym")).answer == \
            "unknown"

    def test_gens_yes(self):
        v = discreteness(parse_descriptor("gens:[cycles:(0 1)]"))
        assert v.answer == "yes" and v.evidence["gamma"] == [0, 1]

    @pytest.mark.parametrize("desc", [
        "stab:partition:singletons", "fn:partition@singletons",
        "stab:partition:explicit@{}"])
    def test_finitely_many_nonsingletons_yes_as_classified(self, tmp_path, desc):
        # statement (iv): a C_1 certificate from the union of the
        # nonsingleton blocks is a trivial stabilizer, so discrete
        path = tmp_path / "few.json"
        path.write_text(json.dumps({
            "blocks": [[0, 3], [5, 6, 7]], "rest": "singletons",
            "profile": {"kind": "bounded", "n": 3, "nonsingletons": 2}}))
        desc = desc.format(path)
        lab = classify(desc)
        assert lab.label == "C_1" and lab.certified
        v = discreteness(parse_descriptor(desc))
        assert v.answer == "yes" and v.evidence["gamma"] == lab.gamma

    @pytest.mark.parametrize("desc,answer,gamma", [
        ("fix(full;{})".format(",".join(str(p) for p in range(100))), "no", None),
        ("fix(full;3)", "no", None),
        ("fix(gens:[cycles:(0 1 2)];5)", "yes", [0, 1, 2, 5])],
        ids=["full-fix-0-to-99", "full-fix-3", "gens-fix-5"])
    def test_fix_has_the_answer_of_its_inner_group(self, desc, answer, gamma):
        # H = G_(Γ) has H_(Δ) = G_(Γ ∪ Δ): statement (iv) holds for H iff
        # for G, and H's trivial stabilizer fixes Γ as well
        v = discreteness(parse_descriptor(desc))
        assert (v.answer, v.evidence.get("gamma")) == (answer, gamma)


    def test_fix_names_the_peeled_set(self):
        # the witnesses are the inner group's probes, so the verdict says
        # which set was peeled off to reach it
        for desc, peeled in (("fix(full;3,7)", [3, 7]),
                             ("fix(fix(stab:partition:pairs;1);2,1)", [1, 2]),
                             ("fix(trivial;4)", [4])):
            assert discreteness(parse_descriptor(desc)).evidence["peeled"] == peeled
        for desc in ("full", "trivial", "stab:partition:pairs", "oracle:full-sym"):
            assert "peeled" not in discreteness(parse_descriptor(desc)).evidence


class TestCompactness:
    def test_pairs_yes(self):
        v = compactness_criterion(parse_descriptor("stab:partition:pairs"))
        assert v.answer == "yes"
        assert v.evidence["closed"] is True

    def test_full_no(self):
        v = compactness_criterion(parse_descriptor("full"))
        assert v.answer == "no"

    def test_fn_standard_no(self):
        v = compactness_criterion(parse_descriptor("fn:standard-omega"))
        assert v.answer == "no"
        assert v.evidence["closed"] is False

    def test_intervals_yes(self):
        v = compactness_criterion(
            parse_descriptor("stab:partition:intervals-growing"))
        assert v.answer == "yes"

    @pytest.mark.parametrize("inner,gamma", [
        ("full", range(100)), ("stab:partition:evens-block", range(0, 129, 2))],
        ids=["full", "evens-block"])
    def test_certified_cs_fix_no(self, inner, gamma):
        # a certified C_S leaves an infinite orbit off every finite set,
        # though the points 0, 1, 5, 17 and 64 lie in gamma or are singletons
        assert classify(inner).label == "C_S"
        desc = "fix({};{})".format(inner, ",".join(str(p) for p in gamma))
        assert compactness_criterion(parse_descriptor(desc)).answer == "no"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REPLAY_CORPUS),
       st.sets(st.integers(0, 63), min_size=1, max_size=8))
def test_verdicts_read_off_the_class_record(desc, gamma):
    fixed = "fix({};{})".format(desc, ",".join(str(p) for p in sorted(gamma)))
    D, H = parse_descriptor(desc), parse_descriptor(fixed)
    for verdict in (discreteness, compactness_criterion):
        assert verdict(H).answer == verdict(D).answer
    v = discreteness(H)
    if v.answer == "yes":
        assert v.evidence["gamma"] == sorted(gamma.union(discreteness(D).evidence["gamma"]))
    if not desc.startswith("fix("):
        lab = classify(desc)
        v = discreteness(D)
        assert (v.answer == "yes") == (lab.certified and lab.label == "C_1")
        if v.answer == "yes":
            assert v.evidence["gamma"] == lab.gamma
    for d in (desc, fixed):
        lab = classify(d)
        if lab.certified and lab.label == "C_S":
            assert compactness_criterion(parse_descriptor(d)).answer != "yes"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REPLAY_CORPUS), st.sets(st.integers(0, 63), max_size=8))
def test_fix_takes_the_inner_record(desc, gamma):
    # G_(Γ)_(Δ) = G_(Γ ∪ Δ), so G_(Γ) lies in G's class and a nested fix is
    # the fix of the union; only a partition stabilizer of class C_Q or C_P
    # under a non-initial union answers by the window rule instead
    fixed = "fix({};{})".format(desc, ",".join(str(p) for p in sorted(gamma)))
    lab = classify(fixed)
    assert check_evidence(fixed, lab.evidence())
    D, union = parse_descriptor(desc), set(gamma)
    while isinstance(D, PointwiseStab):
        D, union = D.inner, union.union(D.gamma)
    assert classify_group(PointwiseStab(D, union)).evidence() == lab.evidence()
    if isinstance(D, PartitionStab) and D.A.profile.label in ("C_Q", "C_P") \
            and sorted(union) != list(range(len(union))):
        return
    inner = classify_group(D)
    assert (lab.label, lab.certified) == (inner.label, inner.certified)


class TestParse:
    def test_roundtrip(self):
        for s in ("full", "trivial", "stab:pairs", "fn:standard-omega",
                  "fix(stab:pairs;0,1)", "gens:[cycles:(0 1)]"):
            d = parse_descriptor(s)
            d2 = parse_descriptor(d.to_string())
            assert d2.to_string() == d.to_string()

    def test_errors(self):
        for bad in ("bogus", "stab:nothing", "fn:metric:wat", "oracle:none",
                    "fix(full)", "fix(stab:partition:pairs;a,b)",
                    "fix(stab:partition:pairs;-1)"):
            with pytest.raises(ParseError):
                parse_descriptor(bad)


# -- the checker table ---------------------------------------------------------

FEW_BLOCKS = {"key": "few", "blocks": [[0, 3], [5, 6, 7]], "rest": "singletons",
              "profile": {"kind": "bounded", "n": 3, "nonsingletons": 2}}

# one descriptor for each basis; {few} is a partition file of FEW_BLOCKS
BASIS_EXAMPLES = {
    "full-symmetric": "full",
    "trivial-group": "trivial",
    "no-certificate": "oracle:full-sym",
    "finite-group": "gens:[cycles:(0 1 2),cycles:(2 3)]",
    "pointwise-stabilizer": "fix(stab:partition:explicit@{few};9,1)",
    "partition-infinite-block": "stab:partition:evens-block",
    "partition-finite-nonsingletons": "stab:partition:explicit@{few}",
    "partition-profile-unbounded": "stab:partition:spread",
    "partition-profile-bounded": "stab:partition:z-pair-blocks",
    "budget-trivial": BUDGET_TRIVIAL_FIX,
    "budget-surviving-orbits": "fix(stab:partition:pairs;1,2,3)",
    "fn-partition": "fn:partition@intervals-growing",
    "fn-discrete": "fn:discrete",
    "fn-worked-example": "fn:standard-z",
    "fn-open": "fn:sqrt",
}


def _example(basis, tmp_path):
    path = tmp_path / "few.json"
    path.write_text(json.dumps(FEW_BLOCKS))
    desc = BASIS_EXAMPLES[basis].format(few=path)
    return desc, classify(desc).evidence()


def _refuse(*args, **kwargs):
    raise AssertionError("a checker ran the producer")


def test_every_emitted_basis_has_one_table_entry():
    # a basis ships only with a checker: each basis string that a function
    # of the classifier passes to _label has one BASES entry, naming that
    # function as its producer, and no entry is dead
    tree = ast.parse(pathlib.Path(classifier.__file__).read_text(encoding="utf-8"))
    emitted = {}
    for fn in tree.body:
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "_label" \
                    and isinstance(call.args[2], ast.Constant):
                emitted.setdefault(call.args[2].value, set()).add(fn.name)
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and node.targets[0].id == "BASES")
    keys = [key.value for key in table.keys]
    assert sorted(keys) == sorted(set(keys)) == sorted(emitted) == sorted(BASIS_EXAMPLES)
    for basis, producers in emitted.items():
        assert producers == {classifier.BASES[basis][0].__name__}


@pytest.mark.parametrize("basis", sorted(BASIS_EXAMPLES))
def test_each_example_carries_its_basis(tmp_path, basis):
    desc, record = _example(basis, tmp_path)
    assert record["basis"] == basis
    assert check_evidence(desc, record)
    assert check_evidence(desc, json.loads(json.dumps(record)))


def test_no_checker_runs_the_producer(tmp_path, monkeypatch, capsys):
    records = [(desc, _record(desc)) for desc in REPLAY_CORPUS] + \
        [_example(basis, tmp_path) for basis in sorted(BASIS_EXAMPLES)]
    real = classifier.check_evidence

    def replay_alone(desc, record):
        with monkeypatch.context() as m:
            m.setattr(classifier, "classify_group", _refuse)
            m.setattr(metrics, "classify_metric", _refuse)
            return real(desc, record)

    for desc, record in records:
        assert replay_alone(desc, record), desc
    # and the CLI's replay of every README classify example
    monkeypatch.setattr(classifier, "check_evidence", replay_alone)
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    examples = [shlex.split(line.split("#")[0])[1:] for line in
                readme.read_text(encoding="utf-8").splitlines()
                if line.startswith("symkit ") and " classify " in line
                and " metric " not in line]
    assert len(examples) == 2
    for argv in examples:
        assert cli_main(["--json"] + [a for a in argv if a != "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["replay_ok"] is True


def test_fn_classification_lists_no_ball(monkeypatch):
    # an fn: record is read off the metric's declarations, both ways
    def refuse(*args, **kwargs):
        raise AssertionError("a ball was listed")

    for cls in metrics.BUILTIN_METRICS.values():
        monkeypatch.setattr(cls, "ball", refuse)
    for desc in [f"fn:{key}" for key in metrics.BUILTIN_METRICS] + [
            "fn:refine(standard-omega;U=[rule:swap-pairs])"]:
        assert check_evidence(desc, classify(desc).evidence()), desc


def test_fn_record_needs_the_basis_the_declarations_select():
    sqrt, worked = _record("fn:sqrt"), _record("fn:standard-omega")
    assert check_evidence("fn:sqrt", sqrt) and check_evidence("fn:standard-omega", worked)
    # fn-open for a worked example, with its claims true or copied over
    assert not check_evidence("fn:standard-omega", {**sqrt, "samples": worked["samples"]})
    assert not check_evidence("fn:standard-omega", {**worked, "basis": "fn-open"})
    # a plausible but forged case
    assert not check_evidence("fn:sqrt", {**sqrt, "samples": {
        **sqrt["samples"], "metric_case": "CaseIII"}})


def _perturbations(record):
    """(where, forged record) for each single claim of record changed."""
    gamma = record["gamma"]
    yield "gamma+", {**record, "gamma": gamma + [max(gamma, default=0) + 1]}
    if gamma:
        yield "gamma-", {**record, "gamma": gamma[:-1]}
    for key, value in record["samples"].items():
        yield f"samples.{key}", {**record, "samples": {
            **record["samples"], key: _perturb(value)}}
    for i, probe in enumerate(record["probes"]):
        for key, value in (("alpha", probe["alpha"] + 1),
                           ("gamma", probe["gamma"] + [10**4]),
                           ("points", [probe["points"][0] + 1] + probe["points"][1:])):
            probes = copy.deepcopy(record["probes"])
            probes[i][key] = value
            yield f"probes[{i}].{key}", {**record, "probes": probes}


@pytest.mark.parametrize("basis", sorted(BASIS_EXAMPLES))
def test_each_checker_rejects_a_perturbed_claim(tmp_path, basis):
    desc, record = _example(basis, tmp_path)
    for where, forged in _perturbations(record):
        assert not check_evidence(desc, forged), where


def test_under_declared_partition_file_record_rejected(tmp_path):
    # the false record classify gave before partition files were validated:
    # two pairs declared as one, so fixing [0, 1] leaves the orbit [2, 3]
    false = {"label": "C_1", "lambda_case": "2", "certified": True,
             "basis": "partition-finite-nonsingletons", "gamma": [0, 1],
             "probes": [], "budgets": classifier.Budgets().to_dict(),
             "samples": {"nonsingleton_count": 1}}
    for declared in (1, 2):
        path = tmp_path / f"two-pairs-{declared}.json"
        path.write_text(json.dumps({
            "blocks": [[0, 1], [2, 3]], "rest": "singletons",
            "profile": {"kind": "bounded", "n": 2, "nonsingletons": declared}}))
        desc = f"stab:partition:explicit@{path}"
        assert not check_evidence(desc, false)
        assert not check_evidence(desc, {**false, "samples": {"nonsingleton_count": 2}})
        assert not check_evidence(f"fix({desc};7)", {
            **false, "basis": "pointwise-stabilizer", "gamma": [7],
            "samples": {"inner": false}})
    true = classify(f"stab:partition:explicit@{path}").evidence()
    assert true["gamma"] == [0, 1, 2, 3] and check_evidence(desc, true)


SYM8 = "gens:[cycles:(0 1 2 3 4 5 6 7),cycles:(0 1)]"


def test_chain_past_its_budget_keeps_c1_with_the_order_unknown(monkeypatch):
    # the support pins every element, so C_1 needs no order; the replay
    # runs the chain at the same budget and meets the same end
    monkeypatch.setattr(chain, "CHAIN_BUDGET", 100)
    lab = classify(SYM8)
    assert (lab.label, lab.certified, lab.gamma) == ("C_1", True, list(range(8)))
    assert lab.samples == {"order": "unknown", "chain_budget": 100,
                           "support": list(range(8))}
    assert check_evidence(SYM8, lab.evidence())
    assert not check_evidence(SYM8, {**lab.evidence(), "samples": {
        "order": 40320, "support": list(range(8))}})
    monkeypatch.setattr(chain, "CHAIN_BUDGET", 10**6)
    assert classify(SYM8).samples["order"] == 40320
    assert not check_evidence(SYM8, lab.evidence())


@st.composite
def classify_strings(draw):
    """A descriptor of the replay corpus, a fix of one by up to 40 points of
    [0, 600), or up to three permutations of up to 12 points."""
    kind = draw(st.sampled_from(["corpus", "fix", "gens"]))
    if kind == "corpus":
        return draw(st.sampled_from(REPLAY_CORPUS))
    if kind == "fix":
        gamma = draw(st.lists(st.integers(0, 599), min_size=1, max_size=40))
        return "fix({};{})".format(draw(st.sampled_from(REPLAY_CORPUS)),
                                   ",".join(map(str, gamma)))
    support = draw(st.lists(st.integers(0, 63), max_size=12, unique=True))
    perms = []
    for _ in range(draw(st.integers(0, 3))):
        image, cycles, seen = dict(zip(support, draw(st.permutations(support)))), [], set()
        for a in support:
            cycle = [a]
            while image[cycle[-1]] != a:
                cycle.append(image[cycle[-1]])
            if a not in seen and len(cycle) > 1:
                cycles.append("(" + " ".join(map(str, cycle)) + ")")
            seen.update(cycle)
        perms.append("cycles:" + "".join(cycles))
    return "gens:[" + ",".join(perms) + "]"


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(classify_strings())
def test_classify_cli_fuzz(desc):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["--json", "classify", desc])
    assert time.perf_counter() - start < 10
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue())
        assert payload["certified"] is True and payload["replay_ok"] is True
