import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.errors import (
    ConvergenceError,
    EvaluationBudgetError,
    NoSupportCertificateError,
    ParseError,
)
from symkit.perm import (
    ConvergentSequence,
    FiniteSupportPermutation,
    Permutation,
    RulePermutation,
    WordPermutation,
    agrees_on_window,
    apply,
    evaluation_budget,
    format_perm,
    identity,
    limit,
    nat_to_z,
    parity,
    parse_perm,
    rule,
    verify_window,
    word,
    z_to_nat,
)


def cyc(*cycles):
    return FiniteSupportPermutation.from_cycles(list(cycles))


def random_finite(rng, span=30, moves=10):
    pts = rng.sample(range(span), moves)
    img = pts[:]
    rng.shuffle(img)
    return FiniteSupportPermutation({a: b for a, b in zip(pts, img) if a != b})


class TestApply:
    def test_identity(self):
        assert apply(identity(), 7) == 7

    def test_cycle(self):
        assert apply(cyc([0, 1, 2]), 2) == 0

    def test_word_left_to_right(self):
        # (0 1) then (1 2): 0 -> 1 -> 2, derived by hand
        w = word(cyc([0, 1]), cyc([1, 2]))
        assert apply(w, 0) == 2

    def test_word_assoc(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (random_finite(rng) for _ in range(3))
            left = word(word(a, b), c)
            right = word(a, word(b, c))
            assert agrees_on_window(left, right, 60)


class TestInverse:
    def test_identity(self):
        assert agrees_on_window(identity().inverse(), identity(), 50)

    def test_cycle_inverse(self):
        assert cyc([0, 1, 2]).inverse().cycles() == [(0, 2, 1)]

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(10):
            p = random_finite(rng)
            assert agrees_on_window(p.inverse().inverse(), p, 50)

    def test_word_inverse_reverses_factors(self):
        w = word(cyc([0, 1]), cyc([1, 2]))
        wi = w.inverse()
        assert agrees_on_window(word(w, wi), identity(), 50)
        assert agrees_on_window(word(wi, w), identity(), 50)

    def test_rule_inverse(self):
        t = rule("shift-z")
        assert agrees_on_window(word(t, t.inverse()), identity(), 100)


class TestVerifyWindow:
    def test_identity_passes(self):
        assert verify_window(identity(), 100).ok

    def test_successor_rule_fails_at_zero(self):
        bad = RulePermutation("succ", lambda n: n + 1, lambda n: n - 1)
        rep = verify_window(bad, 10)
        assert not rep.ok
        assert rep.failure["point"] == 0

    def test_disjoint_transpositions(self):
        assert verify_window(cyc([0, 1], [2, 3]), 10).ok

    def test_builtin_rules(self):
        for name in ("identity", "shift-z", "swap-pairs"):
            assert verify_window(rule(name), 200).ok
        assert verify_window(rule("block-rotate", size=5), 200).ok

    def test_non_injective_rule(self):
        bad = RulePermutation("crush", lambda n: n // 2, lambda n: 2 * n)
        assert not verify_window(bad, 10).ok


class TestParity:
    def test_examples(self):
        assert parity(identity()) == "even"
        assert parity(cyc([0, 1])) == "odd"
        assert parity(cyc([0, 1, 2])) == "even"

    def test_needs_certificate(self):
        with pytest.raises(NoSupportCertificateError):
            parity(rule("shift-z"))

    def test_homomorphism(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b = random_finite(rng), random_finite(rng)
            w = word(a, b)
            lhs = parity(w)
            rhs = "even" if parity(a) == parity(b) else "odd"
            assert lhs == rhs


class TestBudget:
    def test_deep_word_budget(self):
        sp = rule("swap-pairs")
        w = sp
        for _ in range(21):  # 2^21 > 10^6 primitive applications
            w = word(w, w)
        with pytest.raises(EvaluationBudgetError):
            w.forward(0)

    def test_budget_override(self):
        sp = rule("swap-pairs")
        w = word(*[sp] * 10)
        with evaluation_budget(5):
            with pytest.raises(EvaluationBudgetError):
                w.forward(0)
        assert w.forward(0) == 0  # ten swaps cancel

    def test_exhausted_budget_stays_exhausted(self):
        w = word(*[rule("swap-pairs")] * 10)
        with evaluation_budget(5):
            for _ in range(2):  # the second call gets no fresh default budget
                with pytest.raises(EvaluationBudgetError):
                    w.forward(0)
        assert w.forward(0) == 0

    @pytest.mark.parametrize("p, form", [
        (rule("swap-pairs"), "rule"),
        (cyc([0, 1]), "cycles"),
    ])
    def test_error_carries_limit_spent_form(self, p, form):
        with evaluation_budget(3):
            with pytest.raises(EvaluationBudgetError) as info:
                word(*[p] * 4).forward(0)
        err = info.value
        assert (err.limit, err.spent, err.form) == (3, 4, form)
        assert str(err) == f"evaluation step budget exhausted: limit 3, form {form}"

    def test_meter_counts_primitive_factors(self):
        w = word(rule("swap-pairs"), cyc([0, 1, 2]), rule("shift-z"))
        with evaluation_budget(100) as m:
            w.forward(0)
            assert m.spent == 3
            w.backward(5)
            assert (m.limit, m.spent) == (100, 6)

    def test_nested_calls_share_the_outer_meter(self):
        class Twice(Permutation):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def _fwd(self, alpha):
                return self.inner.forward(self.inner.forward(alpha))

        t = Twice(word(rule("swap-pairs"), rule("swap-pairs")))
        with evaluation_budget(10) as m:
            assert t.forward(0) == 0
            assert m.spent == 4
        with evaluation_budget(3) as m:
            with pytest.raises(EvaluationBudgetError):
                t.forward(0)
            assert m.spent == 4

    def test_each_top_level_call_gets_a_fresh_default_budget(self):
        w = rule("swap-pairs")
        for _ in range(19):  # 2^19 steps: two calls together pass 10^6
            w = word(w, w)
        assert w.forward(0) == 0
        assert w.forward(0) == 0

    def test_previous_meter_restored(self):
        w = word(rule("swap-pairs"), rule("swap-pairs"))
        with evaluation_budget(50) as outer:
            with evaluation_budget(50) as inner:
                w.forward(0)
            w.forward(0)
            assert (outer.spent, inner.spent) == (2, 2)
            with evaluation_budget(1):
                with pytest.raises(EvaluationBudgetError):
                    w.forward(0)
            w.forward(0)
            assert outer.spent == 4
        assert w.forward(0) == 0
        assert outer.spent == 4

    def test_meters_are_per_thread(self):
        w = word(*[rule("swap-pairs")] * 10)
        entered, done = (threading.Barrier(2, timeout=30) for _ in range(2))
        results = {}

        def budgeted():
            with evaluation_budget(5) as m:
                entered.wait()
                done.wait()
                results["other_spent"] = m.spent
                try:
                    w.forward(0)
                except EvaluationBudgetError as exc:
                    results["budgeted"] = exc.spent

        def unbudgeted():
            entered.wait()
            results["unbudgeted"] = w.forward(0)
            done.wait()

        threads = [threading.Thread(target=f) for f in (budgeted, unbudgeted)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert results == {"other_spent": 0, "budgeted": 6, "unbudgeted": 0}

    def test_concurrent_top_level_calls_keep_separate_meters(self):
        gate = threading.Barrier(2, timeout=30)
        meet = RulePermutation("meet", lambda a: (gate.wait(), a)[1], lambda a: a)
        deep = rule("swap-pairs")
        for _ in range(19):  # 2^19 steps each: one shared meter would pass 10^6
            deep = word(deep, deep)
        w = word(meet, deep)
        results = []
        threads = [threading.Thread(target=lambda: results.append(w.forward(0)))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert results == [0, 0]


class TestLimit:
    def test_constant_sequence(self):
        p = cyc([0, 1])
        seq = ConvergentSequence(
            lambda j: (p, frozenset(range(max(j, 2)))))
        L = limit(seq, 6)
        assert agrees_on_window(L, p, 80)
        assert all(L.backward(i) == p.backward(i) for i in range(80))

    def test_growing_cycles_violate_hypotheses(self):
        # (0 1), (0 1 2), ... limits to the non-surjective successor map
        def terms(j):
            return (FiniteSupportPermutation.from_cycles(
                [list(range(j + 2))]), frozenset(range(j)))

        seq = ConvergentSequence(terms)
        with pytest.raises(ConvergenceError) as err:
            limit(seq, 8)
        assert err.value.level is not None
        assert err.value.point is not None

    def test_coset_condition_between_distinct_terms(self):
        # only a term that is the same object as the one before may skip it
        swap, fixed = cyc([2, 3]), identity()
        seq = ConvergentSequence(
            lambda j: (swap if j % 2 else fixed, frozenset(range(max(j, 4)))))
        with pytest.raises(ConvergenceError) as err:
            limit(seq, 3)
        assert (err.value.level, err.value.point, err.value.condition) == \
            (1, 2, "coset")
        fixed_too = identity()
        seq = ConvergentSequence(
            lambda j: (fixed_too if j % 2 else fixed, frozenset(range(j))))
        assert agrees_on_window(limit(seq, 6), fixed, 20)

    def test_stability_across_levels(self):
        p = cyc([0, 1], [4, 5])
        seq = ConvergentSequence(lambda j: (p, frozenset(range(max(j, 6)))))
        L = limit(seq, 10)
        for i in range(6):
            for j in range(i + 1, 10):
                g, _ = seq.term(j)
                assert L.forward(i) == g.forward(i)

    def test_inverse_of_limit(self):
        p = cyc([1, 2, 3])
        seq = ConvergentSequence(lambda j: (p, frozenset(range(max(j, 4)))))
        L = limit(seq, 5)
        assert agrees_on_window(L.inverse(), p.inverse(), 50)

    def test_inverse_reads_the_same_memo(self):
        # a rule term charges one step per evaluation, so only the limit's
        # own memo can answer the inverse's lookups for free
        seq = ConvergentSequence(lambda j: (rule("swap-pairs"), frozenset(range(j + 2))))
        L = limit(seq, 1)
        images = [L.forward(a) for a in range(20)]
        inverse = L.inverse()
        with evaluation_budget() as m:
            assert [inverse.backward(a) for a in range(20)] == images
        assert m.spent == 0


class TestZEmbedding:
    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_roundtrip(self, z):
        assert nat_to_z(z_to_nat(z)) == z

    @given(st.integers(min_value=0, max_value=10**6))
    def test_roundtrip_nat(self, m):
        assert z_to_nat(nat_to_z(m)) == m

    def test_layout(self):
        assert [z_to_nat(z) for z in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


class TestTextFormat:
    def test_cycles_roundtrip(self):
        p = cyc([0, 1, 2], [5, 6])
        assert format_perm(p) == "cycles:(0 1 2)(5 6)"
        q = parse_perm(format_perm(p))
        assert agrees_on_window(p, q, 20)

    def test_rule_roundtrip(self):
        p = rule("block-rotate", size=3)
        q = parse_perm(format_perm(p))
        assert agrees_on_window(p, q, 40)

    def test_word_with_inverse(self):
        p = parse_perm("word:[cycles:(0 1),rule:swap-pairs^-1]")
        assert isinstance(p, WordPermutation)
        assert p.forward(0) == 0  # 0 -> 1 -> 0

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_perm("cycles:(0 1")
        with pytest.raises(ParseError):
            parse_perm("rule:undefined-thing")
        with pytest.raises(ParseError):
            parse_perm("nonsense")


class TestTwoSidedConsistency:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=20),
                    min_size=2, max_size=6, unique=True))
    def test_cycles_verify(self, points):
        p = FiniteSupportPermutation.from_cycles([points])
        assert verify_window(p, 30).ok
