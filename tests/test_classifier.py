import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symkit.classifier as classifier
from symkit.classifier import (
    CLASS_ORDER,
    LAMBDA_CASE,
    check_evidence,
    class_lt,
    classify_group,
    compactness_criterion,
    discreteness,
    orbit,
    parse_descriptor,
)
from symkit.errors import ParseError, PreconditionError
from symkit.metrics import MetricCaseReport


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
    "stab:partition:evens-block", "oracle:full-sym"]

BASES = ("full-symmetric", "trivial-group", "partition-profile-unbounded",
         "partition-profile-bounded", "partition-finite-nonsingletons",
         "partition-infinite-block", "initial-segment-stabilizer",
         "budget-trivial", "budget-surviving-orbits", "fn-partition",
         "fn-discrete", "fn-worked-example", "fn-open", "finite-group",
         "no-certificate")

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
        assert lab.basis == "partition-infinite-block"
        assert lab.gamma == [1, 3]
        assert all({1, 3} <= set(p.gamma) for p in lab.probes)
        assert check_evidence(desc, lab.evidence())
        assert check_evidence(desc, json.loads(json.dumps(lab.evidence())))

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
        assert class_lt("C_1", "C_Q")
        assert class_lt("C_Q", "C_P")
        assert class_lt("C_P", "C_S")
        assert not class_lt("C_S", "C_1")


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
        monkeypatch.setattr(classifier, "classify_metric",
                            lambda m: MetricCaseReport("CaseII", {}))
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
