"""Cross-module checks: limits behave as permutations, alternative oracles,
infinite-block descriptors, and bounded E-trees."""
import contextlib
import io
import json
import time

import pytest

import symkit.partitions as parts
from symkit.classifier import (
    check_evidence,
    classify_group,
    compactness_criterion,
    orbit,
    parse_descriptor,
)
from symkit.cli import cli_main
from symkit.errors import (
    EvaluationBudgetError,
    PreconditionError,
    ProfileViolationError,
)
from symkit.perm import verify_window
from symkit.trees import (
    E_TREE_SIZE_CAP,
    FullSymmetricOracle,
    PartitionStabilizerOracle,
    branch_limit,
    build_e_tree,
    build_tree,
)


class TestLimitsAreTwoSided:
    def test_binary_branch_limits_verify(self):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 5)
        for bits in ((0, 1, 0, 1, 0), (1, 1, 1, 1, 1), (0, 0, 1, 0, 0)):
            g = branch_limit(tree, bits)
            assert verify_window(g, 64).ok

    def test_inf_branch_limits_verify(self):
        tree = build_tree(FullSymmetricOracle(), "inf", 4)
        for choice in ((0, 0, 0), (1, 1), (2, 0)):
            assert verify_window(branch_limit(tree, choice), 48).ok


class TestPairsOracleBinaryTree:
    def test_binary_over_pairs(self):
        # the pairs stabilizer also has maximal orbit two
        import itertools

        tree = build_tree(PartitionStabilizerOracle(parts.pairs()), "binary", 5)
        tree.verify_invariants()
        for bits in itertools.product((0, 1), repeat=5):
            g = branch_limit(tree, bits)
            for i, b in enumerate(bits):
                want = tree.betas[i] if b else tree.alphas[i]
                assert g.forward(tree.alphas[i]) == want


class TestUnboundedBranches:
    def test_branch_limits_match_prefix(self):
        tree = build_tree(FullSymmetricOracle(), "unbounded", 3,
                          n_sequence=[3, 3, 3])
        for choice in ((0, 0, 0), (1, 2, 0), (2, 1, 2)):
            g = branch_limit(tree, choice)
            prefix = tree.perm(tuple(choice))
            for i in range(3):
                assert g.forward(tree.alphas[i]) == \
                    prefix.forward(tree.alphas[i])
            assert verify_window(g, 48).ok


class TestETreeBounds:
    def test_size_cap(self):
        # 1,447 one-node levels hold 1 + 2 + ... + 1447 entries; one more passes
        assert build_e_tree([0] * 1448, depth=1448).level_count() == 1447
        for chain in ([0, 9], [0, 10 ** 18], [0] * 1449):
            with pytest.raises(PreconditionError,
                               match=f"cap of {E_TREE_SIZE_CAP} tuple entries"):
                build_e_tree(chain, depth=len(chain))
        # levels past the depth are never sized
        assert build_e_tree([0, 2, 100], depth=1).level_count() == 1

    @pytest.mark.parametrize("chain", [
        "0,5,3", "0,9", "0,11", "0,100000000", ",".join(["0"] * 20000)])
    def test_cli_refuses_with_one_error_line(self, chain):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["tree", "s", "--breakpoints", chain,
                             "--depth", "20000"])
        assert time.perf_counter() - start < 1
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("chain, depth, nodes", [
        ("0,3,3", 3, 6), ("0,8", 5, 40320), ("0,8,8", 5, 40320),
        ("0,1,3,6,10,15", 5, 34560)])
    def test_cli_answers_up_to_the_cap(self, chain, depth, nodes):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["--json", "tree", "s", "--breakpoints", chain,
                             "--depth", str(depth)])
        assert code == 0 and json.loads(out.getvalue())["levels"][-1] == nodes


class TestInfiniteBlockDescriptor:
    def test_orbit_enumerates_through_block_of(self):
        rep = orbit(parse_descriptor("stab:partition:evens-block"), [0], 2, 32)
        assert rep.kind == "atleast"
        assert 0 not in rep.points
        assert all(p % 2 == 0 for p in rep.points)

    def test_classify_c_s_with_replay(self):
        desc = "stab:partition:evens-block"
        lab = classify_group(parse_descriptor(desc))
        assert lab.label == "C_S" and lab.certified
        assert check_evidence(desc, lab.evidence())

    def test_oracle_enumerates_infinite_block(self):
        r = PartitionStabilizerOracle(parts.evens_block()).orbit(
            frozenset({0}), 2, 8)
        assert r.kind == "atleast"
        assert r.points == [2, 4, 6, 8, 10, 12, 14, 16]

    def test_singleton_orbit_outside_block(self):
        rep = orbit(parse_descriptor("stab:partition:evens-block"), [], 3, 32)
        assert rep.kind == "full" and rep.points == [3]

    def test_member_list_refused(self):
        A = parts.evens_block()
        with pytest.raises(ProfileViolationError):
            A.block_members(0)

    def test_not_compact(self):
        v = compactness_criterion(parse_descriptor("stab:partition:evens-block"))
        assert v.answer == "no"

    def test_false_infinite_block_runs_out_of_budget(self):
        # one point in the declared infinite block: no second free point
        from symkit.classifier import PartitionStab, discreteness

        liar = parts.explicit([], parts.HasInfiniteBlock(1), key="liar")
        with pytest.raises(EvaluationBudgetError) as err:
            discreteness(PartitionStab(liar, liar.key))
        assert err.value.form == "free-points"

    def test_false_infinite_block_orbit_runs_out_of_budget(self):
        from symkit.classifier import PartitionStab

        liar = parts.explicit([], parts.HasInfiniteBlock(1), key="liar")
        with pytest.raises(EvaluationBudgetError) as err:
            orbit(PartitionStab(liar, liar.key), [], 1)
        assert err.value.form == "free-points"

    def test_false_finite_profile_runs_out_of_budget(self):
        # three nonsingletons declared, one listed: the walk for the rest of
        # their union stops only at the meter
        from symkit.classifier import PartitionStab

        few = parts.explicit([[0, 1]], parts.BoundedBy(2, 3), key="few")
        with pytest.raises(EvaluationBudgetError) as err:
            classify_group(PartitionStab(few, few.key))
        assert err.value.form == "blocks"

    def test_not_discrete(self):
        from symkit.classifier import discreteness

        v = discreteness(parse_descriptor("stab:partition:evens-block"))
        assert v.answer == "no"
        for wit in v.evidence["witnesses"]:
            a, b = wit["moved"]
            assert a % 2 == 0 and b % 2 == 0


class TestCliExtras:
    def test_even_shift_cli(self, capsys):
        from symkit.cli import cli_main

        code = cli_main(["--json", "witness", "even-shift",
                         "--partition", "spread", "--depth", "2"])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        marked = payload["marked"]
        assert marked["0"] == 0

    def test_tree_elements_dump(self, capsys):
        from symkit.cli import cli_main
        import json

        code = cli_main(["--json", "tree", "build", "--mode", "binary",
                         "--depth", "3", "--oracle", "stab-pairs"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 15
        assert len(payload["elements"]) == 15

    def test_metric_radius_override(self, capsys):
        from symkit.cli import cli_main
        import json

        code = cli_main(["--json", "metric", "classify", "ultra-base2",
                         "--radius", "2,4", "--centers", "64"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["case"] == "CaseIII"
        assert payload["evidence"]["radii"] == ["2", "4"]

    def test_orbit_atleast_output(self, capsys):
        from symkit.cli import cli_main
        import json

        code = cli_main(["--json", "orbit", "full", "--alpha", "0",
                         "--budget", "10"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "atleast"
