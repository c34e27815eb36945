import itertools
import random

import pytest

import symkit.partitions as parts
from symkit.errors import (
    EvaluationBudgetError,
    NoCertificateError,
    PreconditionError,
    ProfileViolationError,
)
from symkit.partitions import stabilizer_membership
from symkit.perm import (
    FiniteSupportPermutation,
    conjugate,
    evaluation_budget,
    format_perm,
    identity,
    rule,
    verify_window,
    word,
)
from symkit.witnesses import (
    commutator_action_on_block,
    commutator_solve,
    even_shift_witness,
    factor_through,
    p_equiv_witness,
    q_equiv_witness,
    sfinite_class,
    three_cycle_extract,
)


def cyc(*cycles):
    return FiniteSupportPermutation.from_cycles(list(cycles))


def random_block_perm(B, rng, blocks):
    mapping = {}
    it = B.iter_blocks()
    for _ in range(blocks):
        b = next(it)
        mem = B.block_members(b)
        img = mem[:]
        rng.shuffle(img)
        mapping.update({x: y for x, y in zip(mem, img) if x != y})
    return FiniteSupportPermutation(mapping)


class TestPEquiv:
    def test_packing_containment(self):
        A, B = parts.intervals_growing(), parts.intervals_growing()
        w = p_equiv_witness(A, B, depth=4)
        for side, records in (("f", w.packing_f), ("g", w.packing_g)):
            perm = w.f if side == "f" else w.g
            for rec in records:
                target = set(B.block_members(rec["target"]))
                image = {perm.forward(x)
                         for x in A.block_members(rec["source"])}
                assert target <= image

    def test_witnesses_are_bijections(self):
        w = p_equiv_witness(parts.intervals_growing(),
                            parts.intervals_growing(), depth=4)
        assert verify_window(w.f, 1000).ok
        assert verify_window(w.g, 1000).ok

    def test_needs_unbounded_profile(self):
        with pytest.raises(ProfileViolationError):
            p_equiv_witness(parts.pairs(), parts.intervals_growing(), 3)

    def test_lying_profile_detected_during_packing(self):
        # declared unbounded but actually pairs everywhere: packing a block
        # of size three must fail with a profile violation, not hang
        liar = parts.Partition("liar", lambda a: a - a % 2,
                               lambda b: [b, b + 1],
                               parts.UnboundedFinite())
        target = parts.intervals_growing()
        from symkit.witnesses import _PackerPermutation

        packer = _PackerPermutation(liar, target, side=0)
        with pytest.raises(ProfileViolationError):
            packer.ensure_rounds(3)

    def test_factor_through_identity(self):
        B = parts.intervals_growing()
        w = p_equiv_witness(parts.intervals_growing(), B, depth=4)
        p, q = factor_through(identity(), w, B, window=100)
        assert all(p.forward(a) == a and q.forward(a) == a for a in range(100))

    def test_factor_through_single_block(self):
        B = parts.intervals_growing()
        w = p_equiv_witness(parts.intervals_growing(), B, depth=4)
        h = cyc([0])  # identity
        h = cyc([1, 2])  # inside block {1, 2}, an even-indexed (B1) block? id 1
        p, q = factor_through(h, w, B, window=60)
        side = 0 if B.block_of(1) in w.b1_blocks else 1
        chosen = p if side == 0 else q
        other = q if side == 0 else p
        assert all(chosen.forward(a) == h.forward(a) for a in range(30))
        assert all(other.forward(a) == a for a in range(30))

    def test_factor_through_random(self):
        rng = random.Random(41)
        A = parts.intervals_growing()
        B = parts.intervals_growing()
        w = p_equiv_witness(A, B, depth=6)
        for _ in range(10):
            h = random_block_perm(B, rng, 6)
            p, q = factor_through(h, w, B, window=200)
            assert all(q.forward(p.forward(a)) == h.forward(a)
                       for a in range(300))
            for factor, wit in ((p, w.f), (q, w.g)):
                conj = conjugate(wit.inverse(), factor)  # wit . factor . wit^-1
                assert stabilizer_membership(conj, A, 200).answer == "yes"

    def test_factor_through_needs_certificate(self):
        B = parts.intervals_growing()
        w = p_equiv_witness(parts.intervals_growing(), B, depth=3)
        with pytest.raises(NoCertificateError):
            factor_through(cyc([0, 1]), w, B, window=50)  # crosses blocks


def spread_partition():
    """Nonsingleton blocks of sizes 4, 5, ... with singletons in between."""
    blocks = []
    pos = 0
    for i in range(80):
        size = 4 + i
        blocks.append(list(range(pos, pos + size)))
        pos += size + 3
    return parts.explicit(blocks, parts.UnboundedFinite(), key="spread")


class TestEvenShift:
    def test_marked_shift(self):
        w = even_shift_witness(spread_partition())
        for i in range(-8, 9):
            assert w.forward(w.marked(i)) == w.marked(i + 2)

    def test_unmarked_fixed(self):
        A = spread_partition()
        w = even_shift_witness(A)
        block = A.block_members(A.block_of(0))
        assert all(w.forward(x) == x for x in block[4:])

    def test_bijection(self):
        assert verify_window(even_shift_witness(spread_partition()), 300).ok

    def test_profile_mismatch(self):
        bad = parts.explicit([[0, 1, 2]], parts.UnboundedFinite(), key="bad")
        w = even_shift_witness(bad)
        with pytest.raises(ProfileViolationError):
            w.forward(0)

    def test_conjugation_shifts_pairs(self):
        w = even_shift_witness(spread_partition())

        def pair_trans(j):
            a, b = w.marked(2 * j), w.marked(2 * j + 1)
            return FiniteSupportPermutation({a: b, b: a})

        for j in range(4):
            conj = conjugate(w, pair_trans(j))  # w^-1 t w
            expect = pair_trans(j + 1)
            assert all(conj.forward(x) == expect.forward(x)
                       for x in range(400))

    def test_builtin_spread_partition(self):
        A = parts.spread()
        A.spot_verify(500)
        w = even_shift_witness(A)
        assert all(w.forward(w.marked(i)) == w.marked(i + 2)
                   for i in range(-6, 7))
        assert verify_window(w, 200).ok


class TestQEquiv:
    def test_identity_factorizes_empty(self):
        w = q_equiv_witness(parts.pairs(), depth=6)
        factors, prod = w.factorize(identity(), window=40)
        assert factors == []

    def test_pair_swap_single_red_factor(self):
        w = q_equiv_witness(parts.pairs(), depth=6)
        factors, prod = w.factorize(cyc([0, 1]), window=20)
        assert len(factors) == 1
        t, color = factors[0]
        assert t.cycles() == [(0, 1)] and color == "red"
        assert all(prod.forward(a) == a if a > 1 else True for a in range(20))

    def test_four_cycle_word(self):
        blocks = [[4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3] for i in range(60)]
        A = parts.explicit(blocks, parts.BoundedBy(4, "infinite"), key="quads")
        w = q_equiv_witness(A, depth=6)
        h = cyc([0, 1, 2, 3])
        factors, prod = w.factorize(h, window=16)
        assert len(factors) <= 12
        assert all(prod.forward(a) == h.forward(a) for a in range(30))

    def test_factors_in_conjugated_stabilizers(self):
        blocks = [[4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3] for i in range(60)]
        A = parts.explicit(blocks, parts.BoundedBy(4, "infinite"), key="quads")
        w = q_equiv_witness(A, depth=6)
        rng = random.Random(5)
        a0 = parts.a0()
        for _ in range(5):
            h = random_block_perm(A, rng, 4)
            factors, prod = w.factorize(h, window=40)
            assert all(prod.forward(a) == h.forward(a) for a in range(40))
            for t, color in factors:
                wit = w.f if color == "red" else w.g
                conj = conjugate(wit.inverse(), t)
                assert stabilizer_membership(conj, a0, 80).answer == "yes"

    def test_terminal_colors_both_infinite(self):
        w = q_equiv_witness(parts.pairs(), depth=6)
        terminals = []
        for b in w.A.blocks_within(200):
            es = w.coloring.edges_of(b)
            if es:
                terminals.append(es[-1][2])
        assert terminals.count("red") >= 10
        assert terminals.count("green") >= 10

    def test_word_bound_per_block(self):
        blocks = [[5 * i + j for j in range(5)] for i in range(40)]
        A = parts.explicit(blocks, parts.BoundedBy(5, "infinite"), key="quints")
        w = q_equiv_witness(A, depth=6)
        rng = random.Random(6)
        for _ in range(10):
            h = random_block_perm(A, rng, 1)
            factors, _ = w.factorize(h, window=5)
            assert len(factors) <= 5 * 4

    def test_needs_bounded_profile(self):
        with pytest.raises(ProfileViolationError):
            q_equiv_witness(parts.intervals_growing())


class TestCommutatorSolve:
    def test_all_zero(self):
        target = {i: 0 for i in range(-4, 5)}
        sol = commutator_solve(target, anchor=0)
        assert set(sol.f_bits.values()) == {0}

    def test_single_active_block(self):
        target = {i: (1 if i == 0 else 0) for i in range(-5, 3)}
        sol = commutator_solve(target, anchor=0)
        assert all(sol.f_bits[i] == (1 if i >= 0 else 0)
                   for i in range(-5, 3))

    def test_forward_relation_exhaustive_width4(self):
        # independent oracle: realize every f-pattern directly and read off
        # which blocks the commutator touches
        from symkit.perm import z_to_nat
        from symkit.witnesses import _bit_blocks, _block_shift

        h = _block_shift()
        for bits in itertools.product((0, 1), repeat=4):
            table = dict(zip(range(-2, 2), bits))
            f = _bit_blocks(lambda i, t=table: t.get(i, 0))
            comm = word(h.inverse(), f.inverse(), h, f)
            for i in range(-1, 2):
                base = 3 * z_to_nat(i)
                acted = comm.forward(base) != base
                expect = table.get(i - 1, 0) ^ table.get(i, 0)
                assert acted == bool(expect)

    def test_exhaustive_width8_targets(self):
        lo = -4
        for pattern in itertools.product((0, 1), repeat=8):
            target = {lo + i: pattern[i] for i in range(8)}
            sol = commutator_solve(target, anchor=0)
            realized = {i: commutator_action_on_block(sol, i)
                        for i in range(lo, lo + 8)}
            assert realized == target

    def test_fixes_points_outside_blocks(self):
        target = {i: 1 for i in range(-4, 4)}
        sol = commutator_solve(target, anchor=1)
        outside = [3 * k + 2 for k in range(16)]
        assert all(sol.commutator.forward(p) == p for p in outside)

    def test_commutator_point_is_metered(self):
        # each of the four rule factors charges one step
        sol = commutator_solve({0: 1}, anchor=0)
        with evaluation_budget() as meter:
            assert sol.commutator.forward(0) == 1
        assert meter.spent == 4
        with evaluation_budget(3), pytest.raises(EvaluationBudgetError):
            sol.commutator.forward(0)

    def test_factors_print_as_opaque(self):
        # the factors' rule names are not built-in rules, so their text must
        # not read as the rule: format, which parse_perm would refuse
        sol = commutator_solve({0: 1}, anchor=0)
        assert format_perm(sol.commutator) == (
            "word:[block-shift:<opaque>,bit-blocks:<opaque>,"
            "block-shift:<opaque>,bit-blocks:<opaque>]")
        assert format_perm(rule("swap-pairs").inverse()) == "rule:swap-pairs^-1"

    def test_anchor_complements(self):
        target = {i: (i % 2) for i in range(-3, 3)}
        s0 = commutator_solve(target, anchor=0)
        s1 = commutator_solve(target, anchor=1)
        assert all(s0.f_bits[i] ^ 1 == s1.f_bits[i] for i in s0.f_bits)


class TestThreeCycle:
    def test_frozen_example(self):
        c = three_cycle_extract(cyc([0, 1]), cyc([1, 2]))
        assert c.cycles() == [(0, 2, 1)]

    def test_far_support_tests_only_the_moved_points(self):
        # the support bound is past 10^6, but only the factors' three moved
        # points are candidates: four steps each, once to find the support
        # and once to read the map
        with evaluation_budget() as meter:
            c = three_cycle_extract(cyc([0, 1]), cyc([1, 1000000]))
        assert c.cycles() == [(0, 1000000, 1)]
        assert meter.spent == 24

    def test_disjoint_supports_rejected(self):
        with pytest.raises(PreconditionError):
            three_cycle_extract(cyc([0, 1]), cyc([2, 3]))

    def test_three_cycles(self):
        c = three_cycle_extract(cyc([0, 1, 2]), cyc([2, 3, 4]))
        assert len(c.cycles()) == 1 and len(c.cycles()[0]) == 3

    def test_random_precondition_pairs(self):
        rng = random.Random(77)
        for _ in range(60):
            size_g = rng.randrange(2, 5)
            pts_g = rng.sample(range(0, 20), size_g)
            shared = rng.choice(pts_g)
            others = [p for p in range(20, 40)]
            pts_s = [shared] + rng.sample(others, rng.randrange(1, 4))
            g = cyc(pts_g)
            s = cyc(pts_s)
            c = three_cycle_extract(g, s)
            assert len(c.cycles()) == 1 and len(c.cycles()[0]) == 3


def brute_force_group(gens, span=8):
    """Independent enumeration over one-line tuples on [0, span)."""
    def to_tuple(p):
        return tuple(p.forward(i) for i in range(span))

    def compose(t1, t2):
        return tuple(t2[t1[i]] for i in range(span))

    ident = tuple(range(span))
    tables = [to_tuple(g) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for t in tables:
            new = compose(cur, t)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return seen


def tuple_parity(t):
    seen = [False] * len(t)
    trans = 0
    for i in range(len(t)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = t[j]
            length += 1
        trans += length - 1
    return trans % 2


class TestSFiniteClass:
    def test_examples(self):
        assert sfinite_class([]) == "trivial"
        assert sfinite_class([cyc([0, 1, 2])]) == "even-finite"
        assert sfinite_class([cyc([0, 1])]) == "odd-finite"

    def test_matches_brute_force(self):
        rng = random.Random(88)
        perms6 = list(itertools.permutations(range(6)))
        for _ in range(60):
            gens = []
            for _ in range(rng.randrange(1, 3)):
                t = rng.choice(perms6)
                mapping = {i: t[i] for i in range(6) if t[i] != i}
                gens.append(FiniteSupportPermutation(mapping))
            got = sfinite_class(gens)
            group = brute_force_group(gens, span=6)
            if len(group) == 1:
                expect = "trivial"
            elif all(tuple_parity(t) == 0 for t in group):
                expect = "even-finite"
            else:
                expect = "odd-finite"
            assert got == expect

    def test_requires_support(self):
        from symkit.perm import rule

        with pytest.raises(PreconditionError):
            sfinite_class([rule("shift-z")])
