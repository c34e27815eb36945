import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symkit.partitions as parts
from symkit.classifier import oracle_plugin
from symkit.errors import (
    HypothesisFailureError,
    IllFormedTreeError,
    NoSupportCertificateError,
    PreconditionError,
    SymkitError,
)
from symkit.perm import (
    FiniteSupportPermutation,
    WordPermutation,
    evaluation_budget,
    format_perm,
    rule,
)
from symkit.trees import (
    ETree,
    FullSymmetricOracle,
    PartitionStabilizerOracle,
    TreeState,
    branch_limit,
    branch_sequence,
    build_e_tree,
    build_s,
    build_tree,
    verify_conjugation,
)


class TestBinaryTree:
    def test_depth8_exhaustive(self):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 8)
        tree.verify_invariants()
        for bits in itertools.product((0, 1), repeat=8):
            g = branch_limit(tree, bits)
            for i, b in enumerate(bits):
                want = tree.betas[i] if b else tree.alphas[i]
                assert g.forward(tree.alphas[i]) == want

    def test_pivots_are_fresh_two_blocks(self):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 6)
        A = parts.a0()
        for a, b in zip(tree.alphas, tree.betas):
            assert A.block_members(A.block_of(a)) == [a, b]
        assert len(set(tree.alphas)) == len(tree.alphas)

    def test_all_zero_branch_fixes_pivots(self):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 5)
        g = branch_limit(tree, (0,) * 5)
        assert all(g.forward(a) == a for a in tree.alphas)

    def test_limit_stability_invariant(self):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 5)
        seq = branch_sequence(tree, (1, 0, 1, 0, 1))
        from symkit.perm import limit

        L = limit(seq, 5)
        for i in range(5):
            for j in range(i + 1, 6):
                g, _ = seq.term(j)
                assert L.forward(i) == g.forward(i)

    def test_needs_bounded_oracle(self):
        with pytest.raises(PreconditionError):
            build_tree(FullSymmetricOracle(), "binary", 3)

    def test_uncertified_factor_refused(self):
        """An oracle's factors must carry a finite-support certificate: the
        next round's gamma reads their moved points."""
        class Uncertified(PartitionStabilizerOracle):
            def act(self, gamma, alpha, target):
                return rule("swap-pairs")

        oracle = Uncertified(parts.pairs())
        with pytest.raises(NoSupportCertificateError) as err:
            build_tree(oracle, "binary", 2)
        assert isinstance(err.value, SymkitError)


class TestUnboundedTree:
    def test_full_oracle(self):
        tree = build_tree(FullSymmetricOracle(), "unbounded", 3,
                          n_sequence=[2, 2, 2])
        tree.verify_invariants()
        assert len(tree.nodes) == 1 + 2 + 4 + 8

    def test_small_orbits_detected(self):
        with pytest.raises(HypothesisFailureError) as err:
            build_tree(PartitionStabilizerOracle(parts.pairs()), "unbounded",
                       4, n_sequence=[1, 2, 3, 4])
        assert err.value.level == 2  # first level where |K_j| * N_j > 2

    def test_level_images_distinct(self):
        tree = build_tree(FullSymmetricOracle(), "unbounded", 3,
                          n_sequence=[3, 3, 3])
        for j in range(3):
            piv = tree.alphas[j]
            images = [tree.perm(k).forward(piv)
                      for k in tree.nodes if len(k) == j + 1]
            assert len(set(images)) == len(images)


class TestInfTree:
    def test_group_sizes(self):
        tree = build_tree(FullSymmetricOracle(), "inf", 4)
        assert [len(tree.level_keys(j)) for j in range(5)] == [1, 1, 2, 4, 8]

    def test_distinct_on_pivots(self):
        tree = build_tree(FullSymmetricOracle(), "inf", 3)
        tree.verify_invariants()
        for lvl in range(len(tree.alphas)):
            piv = tree.alphas[lvl]
            images = [tree.perm(k).forward(piv)
                      for k in tree.nodes if len(k) == lvl + 1]
            assert len(set(images)) == len(images)

    def test_branches_converge(self):
        tree = build_tree(FullSymmetricOracle(), "inf", 4)
        for choice in [(0, 0), (1, 0), (2,), (0, 1), (3,)]:
            g = branch_limit(tree, choice)
            prefix = tree.perm(tuple(choice))
            for i in range(len(choice)):
                assert g.forward(tree.alphas[i]) == \
                    prefix.forward(tree.alphas[i])

    def test_branch_needs_built_prefix(self):
        tree = build_tree(FullSymmetricOracle(), "inf", 3)
        with pytest.raises(PreconditionError):
            branch_limit(tree, (9, 9))

    def test_depth_cap(self):
        with pytest.raises(PreconditionError):
            build_tree(FullSymmetricOracle(), "inf", 13)


class TestETree:
    def test_level_sizes_products_of_factorials(self):
        et = build_e_tree([0, 1, 3, 6], depth=3)
        assert [len(l) for l in et.levels] == [1, 1, 2, 12]

    def test_empty_breakpoints(self):
        et = build_e_tree([], depth=5)
        assert [len(l) for l in et.levels] == [1]

    def test_freshness(self):
        et = build_e_tree([0, 2, 4], depth=2)
        seen = []
        for level in et.levels[1:]:
            for node in level.values():
                seen.extend(node.fresh)
        assert len(seen) == len(set(seen))

    def test_identity_pis_give_identity_s(self):
        et = build_e_tree([0, 1, 2], depth=2)
        s = build_s(et)
        assert s.moved_points() == []

    def test_transposition_pi_transposes_components(self):
        et = build_e_tree([0, 2], depth=1)
        s = build_s(et)
        swap_node = et.node(((1, 0),))
        a, b = swap_node.fresh
        assert s.forward(a) == b and s.forward(b) == a
        id_node = et.node(((0, 1),))
        assert all(s.forward(c) == c for c in id_node.fresh)

    def test_duplicate_component_rejected(self):
        from symkit.trees import ENode

        et = ETree([0, 2])
        bad = ENode(((0, 1),), (3, 3), (3, 3))
        et.levels.append({bad.pis: bad})
        with pytest.raises(IllFormedTreeError):
            build_s(et)


class TestVerifyConjugation:
    def test_identity_pi(self):
        et = build_e_tree([0, 1, 3, 6], depth=3)
        s = build_s(et)
        rep = verify_conjugation(et, s, {}, window=6)
        assert rep.ok and rep.checked == list(range(6))

    def test_transposing_pi(self):
        et = build_e_tree([0, 2, 4], depth=2)
        s = build_s(et)
        rep = verify_conjugation(et, s, {0: 1, 1: 0}, window=4)
        assert rep.ok

    def test_twenty_random_interval_preserving_pis(self):
        import random

        et = build_e_tree([0, 2, 5, 8], depth=3)
        s = build_s(et)
        rng = random.Random(14)
        for _ in range(20):
            pi = {}
            for lo, hi in ((0, 2), (2, 5), (5, 8)):
                img = list(range(lo, hi))
                rng.shuffle(img)
                pi.update({lo + k: img[k] for k in range(hi - lo)})
            assert verify_conjugation(et, s, pi, window=8).ok

    def test_interval_violation(self):
        et = build_e_tree([0, 2, 4], depth=2)
        s = build_s(et)
        with pytest.raises(PreconditionError):
            verify_conjugation(et, s, {0: 2, 2: 0}, window=4)


def scan_e_tree(breakpoints, depth):
    """Each level's (token, fresh) pairs, with every fresh component the least
    natural outside the parent's token, every component used so far and the
    node's earlier fresh components: the least-free scan of the tuple family
    the counter replaced."""
    levels = [{(): ((), ())}]
    used = set()
    for r in range(1, min(depth, len(breakpoints) - 1) + 1):
        lo, hi = breakpoints[r - 1], breakpoints[r]
        level = {}
        for pis, (token, _) in levels[-1].items():
            for pi in itertools.permutations(range(hi - lo)):
                fresh = []
                for _ in range(lo, hi):
                    avoid = used.union(token, fresh)
                    fresh.append(next(itertools.filterfalse(
                        avoid.__contains__, itertools.count())))
                level[pis + (pi,)] = (token + tuple(fresh), tuple(fresh))
                used.update(fresh)
        levels.append(level)
    return levels


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.integers(0, 5))
def test_counter_labels_match_the_scan(widths, depth):
    # the scan is quadratic in the labels: keep levels to 6^4 nodes
    assume(math.prod(math.factorial(w) for w in widths[:depth]) <= 6 ** 4)
    bp = [0, *itertools.accumulate(widths)]
    et = build_e_tree(bp, depth)
    assert [{pis: (n.token, n.fresh) for pis, n in level.items()}
            for level in et.levels] == scan_e_tree(bp, depth)
    assert verify_conjugation(et, build_s(et), {}, window=bp[-1]).ok


# --------------------------------------------------------------------------
# The memoised, parent-chained evaluation against flat words.


class FlatWordTree(TreeState):
    """The reference evaluation: every element a flat word over its
    factors, every round gamma rescanned over all points and nodes, and every
    factor checked point by point on its event set."""

    def perm(self, key):
        if key not in self._perms:
            self._perms[key] = WordPermutation(self.nodes[key].factors)
        return self._perms[key]

    def _gamma(self, j):
        pts = self._points(j)
        out = set(pts)
        for key in self.nodes:
            e = self.perm(key)
            out.update(e.backward(p) for p in pts)
        return frozenset(out)

    def verify_invariants(self):
        for key, node in self.nodes.items():
            if node.parent is not None:
                for p in node.event:
                    if node.factor.forward(p) != p:
                        raise IllFormedTreeError(
                            f"factor of {key} moves {p} of its event set")
        return super().verify_invariants()


def _grow(cls, oracle, mode, depth):
    """The tree after ``depth`` rounds, or the error that stopped it."""
    n_seq = [i + 1 for i in range(depth)] if mode == "unbounded" else None
    tree = cls(mode, oracle_plugin(oracle), n_sequence=n_seq)
    try:
        for _ in range(depth):
            tree.build_round()
    except SymkitError as exc:
        return tree, (type(exc).__name__, str(exc))
    return tree, None


WINDOW = 40


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["full-sym", "stab-pairs", "stab-a0"]),
       st.sampled_from(["binary", "unbounded", "inf"]),
       st.integers(0, 6), st.data())
def test_tree_matches_flat_word_reference(oracle, mode, depth, data):
    tree, err = _grow(TreeState, oracle, mode, depth)
    ref, ref_err = _grow(FlatWordTree, oracle, mode, depth)
    assert err == ref_err
    assert (tree.alphas, tree.betas, tree.gammas) == \
        (ref.alphas, ref.betas, ref.gammas)
    assert list(tree.nodes) == list(ref.nodes)
    for key in tree.nodes:
        e, r = tree.perm(key), ref.perm(key)
        assert format_perm(e) == format_perm(r)
        assert [e.backward(a) for a in range(WINDOW)] == \
            [r.backward(a) for a in range(WINDOW)]
        assert [e.forward(a) for a in range(WINDOW)] == \
            [r.forward(a) for a in range(WINDOW)]
    if err is not None:
        return
    assert tree.verify_invariants() == ref.verify_invariants()
    leaves = [k for k in tree.nodes if len(k) == max(map(len, tree.nodes))]
    for choice in data.draw(st.lists(st.sampled_from(leaves), max_size=3)):
        g, h = branch_limit(tree, choice), branch_limit(ref, choice)
        assert [g.forward(a) for a in range(WINDOW)] == \
            [h.forward(a) for a in range(WINDOW)]


def _finite_perms(span):
    return st.lists(st.integers(0, span), unique=True, max_size=6).flatmap(
        lambda pts: st.permutations(pts).map(
            lambda img: FiniteSupportPermutation(dict(zip(pts, img)))))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_arbitrary_factors_match_flat_words(depth, data):
    """Factors drawn freely, bound by no event set, and pivots that may
    already be preimages: each incremental gamma still equals the full
    rescan, and each element its flat word, in either direction first."""
    tree = TreeState("binary", FullSymmetricOracle())
    ref = FlatWordTree("binary", FullSymmetricOracle())
    points = st.integers(0, 24)
    for j in range(depth):
        assert tree._gamma(j) == ref._gamma(j)
        a, b = data.draw(points), data.draw(points)
        for t in (tree, ref):
            t.alphas.append(a)
            t.betas.append(b)
        for key in tree.level_keys(j):
            for bit in (0, 1):
                factor = data.draw(_finite_perms(24))
                for t in (tree, ref):
                    t._add_node(key + (bit,), factor, frozenset())
    assert tree._gamma(depth) == ref._gamma(depth)
    calls = st.tuples(st.sampled_from(sorted(tree.nodes)), st.booleans(), points)
    for key, back, p in data.draw(st.lists(calls, max_size=40)):
        e, r = tree.perm(key), ref.perm(key)
        if back:
            assert e.backward(p) == r.backward(p)
        else:
            assert e.forward(p) == r.forward(p)


class TestFactorCheck:
    """verify_invariants still names the first offending key and point."""

    def _expect(self, tree, key):
        node = tree.nodes[key]
        p = next(p for p in node.event if node.factor.forward(p) != p)
        with pytest.raises(IllFormedTreeError) as err:
            tree.verify_invariants()
        assert str(err.value) == f"factor of {key} moves {p} of its event set"
        ref = FlatWordTree(tree.mode, tree.oracle)
        ref.nodes, ref.rounds, ref.alphas = tree.nodes, tree.rounds, tree.alphas
        with pytest.raises(IllFormedTreeError) as ref_err:
            ref.verify_invariants()
        assert str(ref_err.value) == str(err.value)

    @pytest.mark.parametrize("key", [(1, 0), (0, 1, 1)])
    def test_transposition_moving_an_event_point(self, key):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 4)
        node = tree.nodes[key]
        p = sorted(node.event)[-1]
        node.factor = FiniteSupportPermutation({p: p + 1000, p + 1000: p})
        self._expect(tree, key)

    def test_rule_factor(self):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 4)
        tree.nodes[(1, 1)].factor = rule("swap-pairs")
        self._expect(tree, (1, 1))

    @pytest.mark.parametrize("factor", [
        FiniteSupportPermutation({1: 128, 128: 1}), rule("swap-pairs")],
        ids=["transposition", "rule"])
    def test_first_offending_point_in_event_order(self, factor):
        tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 4)
        node = tree.nodes[(1, 0)]
        node.event = frozenset({64, 1, 128, 2})
        assert list(node.event) != sorted(node.event)
        node.factor = factor
        self._expect(tree, (1, 0))


def test_negative_depth_rejected():
    with pytest.raises(PreconditionError):
        build_tree(FullSymmetricOracle(), "inf", -1)


class TestStepCounts:
    """Evaluation cost as primitive steps charged to the meter, not a clock.

    Before elements were evaluated through their parents and gammas grew
    incrementally, the depth-8 stab-a0 binary tree cost 28,024 steps to
    build, 10,970 to verify and 514 for the branch limit below; with them it
    cost 4,883, 256 and 17.  Since each round's gamma reads each new node's
    factor once, one step per point the factor moves, the build costs 1,274.
    The gamma no longer pulls every swept point back through every element,
    so it leaves fewer memos filled: verifying now costs 384 and the branch
    limit 86."""

    def test_depth8_tree(self):
        with evaluation_budget(10**9) as m:
            tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 8)
        assert m.spent <= 1_300
        with evaluation_budget(10**9) as m:
            tree.verify_invariants()
        assert m.spent <= 2_000
        with evaluation_budget(10**9) as m:
            branch_limit(tree, (1, 0, 1, 1, 0, 1, 0, 1))
        assert m.spent <= 100

    def test_depth10_inf_tree(self):
        """20,629 steps while every key re-evaluated every node at its
        pivot; 17,766 with one image set per pivot, grown over new nodes."""
        with evaluation_budget(10**9) as m:
            build_tree(FullSymmetricOracle(), "inf", 10)
        assert m.spent <= 18_000
