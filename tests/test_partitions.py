import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.classifier import (
    PartitionStab,
    check_evidence,
    classify_group,
    orbit,
    parse_descriptor,
)
from symkit.errors import (
    EvaluationBudgetError,
    NotIsomorphicError,
    ParseError,
    ProfileViolationError,
)
from symkit.partitions import (
    BoundedBy,
    UnboundedFinite,
    a0,
    conjugator,
    explicit,
    intervals_growing,
    pairs,
    pairs_shifted,
    parse_partition,
    singletons,
    spread,
    stabilizer_membership,
    z_pair_blocks,
)
from symkit.perm import FiniteSupportPermutation, evaluation_budget, identity
from symkit.witnesses import q_equiv_witness


def cyc(*cycles):
    return FiniteSupportPermutation.from_cycles(list(cycles))


ALL_BUILTINS = [pairs, pairs_shifted, a0, intervals_growing, singletons,
                z_pair_blocks]


class TestLayouts:
    def test_a0_layout(self):
        A = a0()
        assert A.block_of(0) == A.block_of(1)
        assert A.block_members(A.block_of(2)) == [2]
        assert A.block_members(A.block_of(3)) == [3]
        assert A.block_members(4) == [4, 5]

    def test_pairs_layout(self):
        A = pairs()
        assert A.block_members(A.block_of(7)) == [6, 7]

    def test_intervals_layout(self):
        A = intervals_growing()
        sizes = [len(A.block_members(b)) for b in A.blocks_within(30)]
        assert sizes[:6] == [1, 2, 3, 4, 5, 6]

    def test_spread_layout_matches_a_walk(self):
        # segment k: a block of 4 + k points, then four singletons
        A, expect, lo, k = spread(), [], 0, 0
        while len(expect) < 10**5:
            expect += [lo] * (4 + k) + list(range(lo + 4 + k, lo + 8 + k))
            lo, k = lo + 8 + k, k + 1
        assert [A.block_of(a) for a in range(10**5)] == expect[:10**5]
        start = time.perf_counter()
        # 10^16 lies in segment 141421348's block, of 141421352 points
        assert A.block_of(10**16) == 141421348 * 141421363 // 2
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("make", ALL_BUILTINS)
    def test_coverage_disjointness(self, make):
        make().spot_verify(10**4)

    @pytest.mark.parametrize("key", ["intervals-growing", "spread"])
    @settings(max_examples=100, deadline=None)
    @given(a=st.one_of(st.integers(0, 10**4), st.integers(0, 10**9)))
    def test_closed_form_block_size_counts_the_members(self, key, a):
        A = parse_partition(key)
        for b in (a, A.block_of(a)):
            assert A.block_size(b) == len(A.block_members(b))


class TestClassify:
    def test_pairs_in_q(self):
        assert pairs().profile.label == "C_Q"

    def test_a0_in_q(self):
        assert a0().profile.label == "C_Q"

    def test_intervals_in_p(self):
        assert intervals_growing().profile.label == "C_P"

    def test_singletons_neither(self):
        assert singletons().profile.label == "C_1"

    def test_agrees_with_size_scan(self):
        # brute-force scan of the probed prefix backs the declared profiles
        for make, expect in ((pairs, "bounded-2"), (intervals_growing, "unbounded")):
            A = make()
            sizes = [len(A.block_members(b)) for b in A.blocks_within(2000)]
            if expect == "bounded-2":
                assert max(sizes) == 2 and sizes.count(2) > 10
            else:
                assert sorted(set(sizes)) == list(range(1, max(sizes) + 1))

    def test_lying_profile_detected(self):
        A = explicit([[0, 1, 2]], BoundedBy(2, "infinite"), key="liar")
        with pytest.raises(ProfileViolationError):
            A.spot_verify(10)

    def test_sampled_block_past_the_bound_refused(self):
        # a triple, then pairs: the first sampled nonsingleton breaks n = 2
        A = explicit([[0, 1, 2]] + [[2 * k + 1, 2 * k + 2] for k in range(2, 50)],
                     BoundedBy(2, "infinite"), key="liar")
        with pytest.raises(ProfileViolationError, match="block 0 has size 3"):
            A.sample_bounded_blocks(4)
        with pytest.raises(ProfileViolationError, match="block 0 has size 3"):
            q_equiv_witness(A, depth=6)


class TestMembership:
    def test_identity(self):
        assert stabilizer_membership(identity(), a0(), 100).answer == "yes"

    def test_cross_block_rejected(self):
        rep = stabilizer_membership(cyc([0, 2]), a0(), 100)
        assert rep.answer == "no"
        assert rep.witness_block == 0

    def test_within_block(self):
        assert stabilizer_membership(cyc([0, 1]), a0(), 100).answer == "yes"

    def test_rule_without_certificate_unknown(self):
        from symkit.perm import rule

        rep = stabilizer_membership(rule("swap-pairs"), a0(), 40)
        assert rep.answer in ("no", "unknown")

    def test_preserved_probes_without_certificate_unknown(self):
        # swap-pairs preserves every block of pairs, but has no finite support
        from symkit.perm import rule

        rep = stabilizer_membership(rule("swap-pairs"), pairs(), 40)
        assert (rep.answer, rep.checked_blocks) == ("unknown", 20)


class TestConjugator:
    def test_same_partition_is_identity(self):
        f = conjugator(pairs(), pairs(), depth=6)
        assert all(f.forward(m) == m for m in range(40))

    def test_profile_mismatch(self):
        with pytest.raises(NotIsomorphicError):
            conjugator(pairs(), a0(), depth=6)

    def test_shuffled_intervals(self):
        # same multiset of sizes, blocks laid out in a different order
        blocks = []
        pos = 0
        for size in (2, 1, 4, 3, 6, 5, 8, 7, 10, 9):
            blocks.append(list(range(pos, pos + size)))
            pos += size
        B = explicit(blocks, UnboundedFinite(), key="shuffled")
        A = intervals_growing()
        f = conjugator(A, B, depth=8)
        for b in A.blocks_within(30):
            members = A.block_members(b)
            image = sorted(f.forward(x) for x in members)
            target = B.block_members(B.block_of(image[0]))
            assert image == target

    def test_conjugated_generators_stabilize_target(self):
        # generators of the source stabilizer, conjugated through f, must
        # land in the target stabilizer
        from symkit.perm import conjugate

        blocks = []
        pos = 0
        for size in (2, 1, 4, 3, 6, 5):
            blocks.append(list(range(pos, pos + size)))
            pos += size
        B = explicit(blocks, UnboundedFinite(), key="shuffled2")
        A = intervals_growing()
        f = conjugator(A, B, depth=6)
        for b in A.blocks_within(15):
            members = A.block_members(b)
            if len(members) < 2:
                continue
            gen = FiniteSupportPermutation(
                {members[0]: members[1], members[1]: members[0]})
            conj = conjugate(f, gen)  # f^-1 gen f stabilizes the image blocks
            assert stabilizer_membership(conj, B, 40).answer == "yes"

    def test_inverse_consistent(self):
        A, Bmake = intervals_growing(), intervals_growing()
        f = conjugator(A, Bmake, depth=6)
        fi = f.inverse()
        for m in range(60):
            assert fi.forward(f.forward(m)) == m

    def test_a0_block_images(self):
        # pairs at {3k+1, 3k+2} with singletons {3k}: isomorphic to a0
        from symkit.partitions import BoundedBy, Partition

        B = Partition(
            "spread-pairs",
            lambda m: m if m % 3 == 0 else (m if m % 3 == 1 else m - 1),
            lambda b: [b] if b % 3 == 0 else [b, b + 1],
            BoundedBy(2, "infinite"))
        A = a0()
        f = conjugator(A, B, depth=8)
        for b in A.blocks_within(24):
            members = A.block_members(b)
            image = sorted(f.forward(x) for x in members)
            assert image == B.block_members(B.block_of(image[0]))

    def test_one_singleton_not_isomorphic_to_a0(self):
        with pytest.raises(NotIsomorphicError):
            conjugator(a0(), pairs_shifted(), depth=8)


class TestParse:
    def test_specs(self):
        assert parse_partition("partition:pairs").key == "pairs"
        assert parse_partition("a0").key == "a0"

    def test_explicit_file(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(
            '{"blocks": [[0,1],[2,3,4]], "rest": "singletons",'
            ' "profile": {"kind": "bounded", "n": 3, "nonsingletons": 2}}')
        A = parse_partition(f"explicit@{path}")
        assert A.block_members(2) == [2, 3, 4]
        assert A.block_members(7) == [7]

    @pytest.mark.parametrize("profile", [
        {"kind": "bounded", "n": 3, "nonsingletons": 1},
        {"kind": "bounded", "n": 3, "nonsingletons": 3},
        {"kind": "bounded", "n": 2, "nonsingletons": 2},
        {"kind": "bounded", "n": 3, "nonsingletons": "infinite"},
        {"kind": "unbounded-finite"},
        {"kind": "infinite-block", "block": 0}],
        ids=["too-few", "too-many", "bound-too-small", "infinitely-many",
             "unbounded", "infinite-block"])
    def test_false_profile_refused(self, tmp_path, profile):
        # finitely many finite blocks, two of them nonsingletons ([9, 9] is
        # the singleton {9}): only a bounded profile with n >= 3 and
        # nonsingletons 2 is true of them
        blocks = [[0, 1], [2, 3, 4], [9, 9]]
        path = tmp_path / "part.json"
        path.write_text(json.dumps({"blocks": blocks, "rest": "singletons",
                                    "profile": profile}))
        with pytest.raises(ParseError, match="false profile"):
            parse_partition(f"explicit@{path}")
        path.write_text(json.dumps({
            "blocks": blocks, "rest": "singletons",
            "profile": {"kind": "bounded", "n": 4, "nonsingletons": 2}}))
        assert parse_partition(f"explicit@{path}").block_members(9) == [9]


# --------------------------------------------------------------------------
# Finitely many finite blocks: the profile and the class come from the blocks.


@st.composite
def block_lists(draw, span=60):
    """Disjoint finite blocks over [0, span), each of 1 to 5 points; every
    other point is a singleton."""
    points = draw(st.permutations(range(span)))
    blocks = []
    for size in draw(st.lists(st.integers(1, 5), max_size=8)):
        blocks.append(sorted(points[:size]))
        points = points[size:]
    return blocks


def _truth(blocks):
    """The largest block size and the number of blocks of two or more points."""
    sizes = [len(blk) for blk in blocks]
    return max(sizes, default=1), sum(s > 1 for s in sizes)


profiles = st.one_of(
    st.fixed_dictionaries({"kind": st.just("bounded"), "n": st.integers(0, 6),
                           "nonsingletons": st.integers(0, 9) | st.just("infinite")}),
    st.just({"kind": "unbounded-finite"}),
    st.just({"kind": "infinite-block", "block": 0}))


@settings(max_examples=60, deadline=None)
@given(block_lists(), profiles)
def test_file_profile_and_class_come_from_the_blocks(blocks, declared):
    largest, count = _truth(blocks)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "part.json")

        def write(profile):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"blocks": blocks, "rest": "singletons",
                           "profile": profile}, fh)

        # accepted exactly when the declared profile is true of the blocks
        write(declared)
        true = declared["kind"] == "bounded" and \
            declared["n"] >= largest and declared["nonsingletons"] == count
        if true:
            assert parse_partition(f"explicit@{path}").profile.label == "C_1"
        else:
            with pytest.raises(ParseError, match="false profile"):
                parse_partition(f"explicit@{path}")
        write({"kind": "bounded", "n": largest, "nonsingletons": count})
        desc = f"stab:partition:explicit@{path}"
        lab = classify_group(parse_descriptor(desc))
        union = sorted(a for blk in blocks if len(blk) > 1 for a in blk)
        assert (lab.label, lab.certified, lab.gamma) == ("C_1", True, union)
        assert check_evidence(desc, lab.evidence())
        # fixing the union pins every point
        G = parse_descriptor(desc)
        for alpha in range(80):
            rep = orbit(G, lab.gamma, alpha)
            assert (rep.kind, rep.points) == ("full", [alpha])


@settings(max_examples=40, deadline=None)
@given(block_lists(), st.integers(1, 3))
def test_explicit_miscounted_nonsingletons_refused(blocks, off):
    # the walk takes the declared count: too few leaves a nonsingleton block
    # in the window past the union, too many walks on to the meter
    largest, count = _truth(blocks)
    if count >= off:
        A = explicit(blocks, BoundedBy(largest, count - off), key="under")
        with pytest.raises(ProfileViolationError, match="nonsingleton past"):
            classify_group(PartitionStab(A, A.key))
    A = explicit(blocks, BoundedBy(largest, count + off), key="over")
    with evaluation_budget(20_000), pytest.raises(EvaluationBudgetError) as info:
        classify_group(PartitionStab(A, A.key))
    assert info.value.form == "blocks"
