import heapq
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.errors import (
    EvaluationBudgetError,
    InsufficientSetError,
    NoCertificateError,
    NotUncrowdedError,
    PreconditionError,
    SymkitError,
    UnsupportedMetricError,
)
import symkit.metrics as metrics
from symkit.metrics import (
    BALL_CAP,
    INF,
    NEIGHBOR_CACHE_CAP,
    CayleyF2,
    CayleyZ2,
    DiscreteInfinite,
    SqrtMetric,
    StandardOmega,
    StandardZ,
    UltraBase2,
    UniformHalf,
    classify_metric,
    factor_fn_omega,
    fn_contains,
    is_finite,
    NormReport,
    metric_from_partition,
    net_flow,
    norm,
    parse_metric,
    refine_metric,
    unbounded_witness,
    unbounded_witness_in_stabilizer,
    unbounded_witness_rule,
)
from symkit.partitions import (
    BoundedBy,
    a0,
    explicit,
    intervals_growing,
    pairs,
    stabilizer_membership,
)
import symkit.perm as perm
from symkit.localdecomp import UniformBreakpoints, pair_crossers
from symkit.perm import (
    FiniteSupportPermutation,
    RulePermutation,
    WordPermutation,
    evaluation_budget,
    identity,
    rule,
    word,
)

RATIONAL_BUILTINS = [StandardOmega, StandardZ, UltraBase2, CayleyZ2, CayleyF2,
                     DiscreteInfinite]


def cyc(*cycles):
    return FiniteSupportPermutation.from_cycles(list(cycles))


class TestAxioms:
    @pytest.mark.parametrize("make", RATIONAL_BUILTINS)
    def test_metric_axioms_sampled(self, make):
        d = make()
        rng = random.Random(1)
        span = 500
        for _ in range(10**4):
            a, b = rng.randrange(span), rng.randrange(span)
            dab = d.dist(a, b)
            assert (dab == 0) == (a == b)
            assert d.dist(b, a) == dab
        for _ in range(2000):
            a, b, c = (rng.randrange(span) for _ in range(3))
            ab, bc, ac = d.dist(a, b), d.dist(b, c), d.dist(a, c)
            assert ac <= ab + bc

    @pytest.mark.parametrize("make", [StandardOmega, StandardZ, UltraBase2])
    def test_ball_membership(self, make):
        d = make()
        rng = random.Random(2)
        for _ in range(300):
            a = rng.randrange(200)
            r = Fraction(rng.randrange(1, 9), rng.choice((1, 2)))
            ball = set(d.ball(a, r))
            for b in range(0, 250):
                assert (b in ball) == (d.dist(a, b) < r)

    @pytest.mark.parametrize("make", [StandardOmega, StandardZ, UltraBase2,
                                      CayleyZ2, CayleyF2])
    def test_uniform_bound_respected(self, make):
        d = make()
        for r in (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(8)):
            cap = max(BALL_CAP, d.uniform_bound(r))
            for a in (0, 3, 17, 100, 1000):
                assert len(d.ball(a, r, cap=cap)) <= d.uniform_bound(r)


class TestSqrt:
    def test_cmp_against_rational(self):
        d = SqrtMetric()
        # d(4, 9) = |2 - 3| = 1 exactly
        assert d.dist_cmp(4, 9, Fraction(1)) == 0
        assert d.dist_cmp(4, 9, Fraction(2)) == -1
        assert d.dist_cmp(4, 9, Fraction(1, 2)) == 1
        # d(2, 8) = sqrt(8) - sqrt(2) = sqrt(2): compare with 3/2 and 1.41...
        assert d.dist_cmp(2, 8, Fraction(3, 2)) == -1
        assert d.dist_cmp(2, 8, Fraction(7, 5)) == 1

    def test_ball_matches_scan(self):
        d = SqrtMetric()
        for a in (0, 10, 100, 3000):
            ball = set(d.ball(a, Fraction(2)))
            for m in range(0, 4000):
                expected = abs(math.isqrt(m * 10**12) - math.isqrt(a * 10**12)) \
                    < 2 * 10**6  # float-free coarse scan, exact via dist_cmp
                assert (m in ball) == (d.dist_cmp(a, m, Fraction(2)) < 0)

    def test_dist_raises(self):
        with pytest.raises(UnsupportedMetricError):
            SqrtMetric().dist(0, 1)


class TestPartitionMetric:
    def test_values(self):
        d = metric_from_partition(pairs())
        assert d.dist(0, 1) == 1
        assert d.dist(0, 0) == 0
        assert d.dist(0, 2) is INF

    def test_balls(self):
        d = metric_from_partition(pairs())
        assert d.ball(0, Fraction(1)) == [0]
        assert d.ball(0, Fraction(2)) == [0, 1]

    def test_infinite_block_unsupported(self):
        from symkit.partitions import HasInfiniteBlock, Partition

        bad = Partition("bad", lambda a: 0, lambda b: [0],
                        HasInfiniteBlock(0))
        with pytest.raises(UnsupportedMetricError):
            metric_from_partition(bad)


def brute_refined(base, U, a, b, limit):
    """Independent enumeration of alternating sequences of cost < limit."""
    moves = []
    for u in U:
        moves.append(u)
        moves.append(u.inverse())
    best = [None]

    def consider(cost):
        if best[0] is None or cost < best[0]:
            best[0] = cost

    def rec(x, cost):
        d_xb = base.dist(x, b)
        if is_finite(d_xb) and cost + d_xb < limit:
            consider(cost + d_xb)
        for y in base.ball(x, limit - cost):
            step = base.dist(x, y)
            if cost + step + 1 >= limit:
                continue
            for u in moves:
                rec(u.forward(y), cost + step + 1)

    rec(a, Fraction(0))
    return best[0]


def best_first(base, U, a, radius):
    """Points within distance < radius of a, with their distances: a plain
    best-first search over base balls of the remaining radius and the moves
    of U, without a cache."""
    moves = list(U) + [u.inverse() for u in U]
    dist = {a: Fraction(0)}
    settled = {}
    heap = [(Fraction(0), a)]
    while heap:
        v, x = heapq.heappop(heap)
        if x in settled:
            continue
        settled[x] = v
        steps = [(y, base.dist(x, y)) for y in base.ball(x, radius - v)]
        steps += [(u.forward(x), 1) for u in moves]
        for y, step in steps:
            w = v + step
            if w < radius and w < dist.get(y, radius):
                dist[y] = w
                heapq.heappush(heap, (w, y))
    return settled


def refine_configs():
    """The four (base metric, U) configurations of acceptance criterion 2,
    then a far move that the search must follow with short base steps, and
    a base whose cost-2 neighbors no cost-1 steps reach."""
    return [
        (StandardOmega(), [rule("swap-pairs")]),
        (metric_from_partition(pairs()), [rule("swap-pairs"), cyc([0, 2])]),
        (metric_from_partition(a0()),
         [rule("shift-z"), cyc([1, 4]), rule("swap-pairs")]),
        (metric_from_partition(intervals_growing()),
         [rule("swap-pairs"), cyc([0, 3])]),
        (StandardOmega(), [cyc([0, 100])]),
        (UltraBase2(), [cyc([0, 100])]),
    ]


class TestRefine:
    @pytest.mark.parametrize("cache_cap", [NEIGHBOR_CACHE_CAP, 4])
    @pytest.mark.parametrize("config", range(6))
    def test_matches_best_first(self, monkeypatch, config, cache_cap):
        # with a cap of 4 entries the cache evicts inside every query
        monkeypatch.setattr(metrics, "NEIGHBOR_CACHE_CAP", cache_cap)
        base, U = refine_configs()[config]
        ref = refine_metric(base, U)
        rng = random.Random(config)
        for _ in range(40):
            a = rng.choice((rng.randrange(400), 0, 100))
            b = rng.choice((rng.randrange(400), max(0, a + rng.randrange(-4, 5))))
            radius = rng.choice((Fraction(2), Fraction(3), Fraction(7, 2),
                                 Fraction(4)))
            expected = best_first(base, U, a, radius)
            assert ref.ball(a, radius) == sorted(expected)
            got = ref.dist_budgeted(a, b, radius)
            if b in expected:
                assert (got.kind, got.value) == ("exact", expected[b])
            else:
                assert (got.kind, got.value) == ("atleast", radius)
            assert len(ref._neighbor_cache) <= cache_cap

    def test_neighbor_cache_bounded(self):
        ref = refine_metric(StandardOmega(), [rule("swap-pairs")])
        rng = random.Random(4)
        queries = 0
        while queries < 2 * NEIGHBOR_CACHE_CAP:
            a = rng.randrange(10 ** 6)
            ref.dist_budgeted(a, rng.randrange(10 ** 6), Fraction(3))
            queries += 1
            assert len(ref._neighbor_cache) <= NEIGHBOR_CACHE_CAP
        assert len(ref._neighbor_cache) == NEIGHBOR_CACHE_CAP

    def test_empty_u_equals_base(self):
        base = StandardOmega()
        ref = refine_metric(base, [])
        for a in range(8):
            for b in range(8):
                assert ref.dist(a, b) == base.dist(a, b)

    def test_u_step_at_most_one(self):
        ref = refine_metric(StandardOmega(), [rule("swap-pairs")])
        for a in range(24):
            res = ref.dist_budgeted(a, a ^ 1, Fraction(2))
            assert res.kind == "exact" and res.value <= 1

    def test_frozen_value(self):
        # d'(0, 3) under swap-pairs: every alternating route costs 3
        ref = refine_metric(StandardOmega(), [rule("swap-pairs")])
        res = ref.dist_budgeted(0, 3, Fraction(5))
        assert (res.kind, res.value) == ("exact", 3)

    def test_dijkstra_matches_brute_force(self):
        configs = [
            (StandardOmega(), [rule("swap-pairs")]),
            (metric_from_partition(pairs()), [rule("shift-z")]),
            (metric_from_partition(intervals_growing()),
             [cyc([0, 3]), rule("swap-pairs")]),
        ]
        rng = random.Random(9)
        for base, U in configs:
            ref = refine_metric(base, U)
            for _ in range(4):
                a, b = rng.randrange(30), rng.randrange(30)
                expected = brute_refined(base, U, a, b, Fraction(4))
                got = ref.dist_budgeted(a, b, Fraction(4))
                if expected is None:
                    assert got.kind == "atleast"
                else:
                    assert got.kind == "exact" and got.value == expected

    def test_monotone_in_u(self):
        base = StandardOmega()
        small = refine_metric(base, [rule("swap-pairs")])
        large = refine_metric(base, [rule("swap-pairs"), cyc([0, 5])])
        for a in range(12):
            for b in range(12):
                s = small.dist_budgeted(a, b, Fraction(4))
                l = large.dist_budgeted(a, b, Fraction(4))
                if l.kind == "exact" and s.kind == "exact":
                    assert l.value <= s.value

    def test_comparison_only_rejected(self):
        with pytest.raises(UnsupportedMetricError):
            refine_metric(SqrtMetric(), [])

    def test_refine_spec_string(self):
        ref = parse_metric("metric:refine(standard-omega;U=[rule:swap-pairs])")
        assert ref.dist_budgeted(0, 3, Fraction(5)).value == 3
        assert parse_metric("refine(partition@pairs;U=[])").key.startswith(
            "refine(partition@pairs")

    def test_crowded_base_detected(self):
        ref = refine_metric(UniformHalf(), [])
        with pytest.raises(NotUncrowdedError):
            ref.ball(0, Fraction(2))

    def test_refined_uniform_bound(self):
        base = StandardOmega()
        U = [rule("swap-pairs")]
        ref = refine_metric(base, U)
        for r in (Fraction(2), Fraction(3), Fraction(4)):
            bound = ref.uniform_bound(r)
            for a in (0, 5, 40, 200):
                assert len(ref.ball(a, r)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.sampled_from([4, NEIGHBOR_CACHE_CAP]),
           st.lists(st.tuples(
               st.integers(0, 60), st.integers(-4, 4) | st.integers(0, 120),
               st.sampled_from([Fraction(2), Fraction(3), Fraction(7, 2),
                                Fraction(4), Fraction(5)])),
               min_size=1, max_size=8))
    def test_point_keyed_cache_matches_best_first(self, config, cache_cap,
                                                   queries):
        """One cache entry per point, at the largest radius asked: radii
        that rise and then fall again over the same points."""
        base, U = refine_configs()[config]
        ref = refine_metric(base, U)
        with mock.patch.object(metrics, "NEIGHBOR_CACHE_CAP", cache_cap):
            for a, b, radius in queries + queries[::-1]:
                b = max(0, a + b) if b <= 4 else b
                expected = best_first(base, U, a, radius)
                assert ref.ball(a, radius) == sorted(expected)
                got = ref.dist_budgeted(a, b, radius)
                if b in expected:
                    assert (got.kind, got.value) == ("exact", expected[b])
                else:
                    assert (got.kind, got.value) == ("atleast", radius)
                assert len(ref._neighbor_cache) <= cache_cap

    def test_smaller_radius_reuses_the_entry(self):
        radii = []

        class CountedBalls(StandardOmega):
            def ball(self, a, r, cap=BALL_CAP):
                radii.append(r)
                return super().ball(a, r, cap)

        ref = refine_metric(CountedBalls(), [rule("swap-pairs")])
        built = []
        for r in (4, 3, 2):
            before = len(radii)
            got = ref.dist_budgeted(100, 102, Fraction(r))
            assert (got.kind, got.value) == \
                (("exact", 2) if r > 2 else ("atleast", 2))
            built.append(len(radii) - before)
        assert built[0] > 0 and built[1:] == [0, 0]
        assert set(radii) == {4}  # integral radii reach the base ball as ints
        assert all(type(r) is int for r in radii)

    def test_search_runs_under_one_meter(self):
        ref = refine_metric(StandardOmega(), [cyc([0, 1]), cyc([0, 2])])
        with evaluation_budget(3):
            with pytest.raises(EvaluationBudgetError) as err:
                ref.dist_budgeted(0, 5, Fraction(2))  # 0 has four moves
        assert (err.value.form, err.value.limit) == ("cycles", 3)

    def test_top_level_search_shares_one_default_budget(self, monkeypatch):
        ref = refine_metric(StandardOmega(), [word(rule("swap-pairs"),
                                                   rule("swap-pairs"))])
        # about 80 expanded points, four steps each: one 50-step budget for
        # the whole search, not one per move
        monkeypatch.setattr(perm._local.state.default, "limit", 50)
        with pytest.raises(EvaluationBudgetError) as err:
            ref.ball(100, Fraction(40))
        assert (err.value.form, err.value.limit) == ("rule", 50)


class TestNorm:
    def test_identity(self):
        rep = norm(identity(), StandardOmega())
        assert rep.lower_bound == 0 and rep.certified_finite and rep.bound == 0

    def test_finite_support_exact(self):
        rep = norm(cyc([0, 5]), StandardOmega(), window=32)
        assert rep.lower_bound == 5
        assert rep.certified_finite and rep.bound == 5

    def test_displacement_certificate(self):
        rep = norm(rule("swap-pairs"), StandardOmega(), window=64)
        assert rep.certified_finite and rep.bound == 1

    def test_rule_without_certificate(self):
        rep = norm(rule("shift-z"), StandardOmega(), window=64)
        assert rep.certificate == "unknown"

    @pytest.mark.parametrize("make", [DiscreteInfinite,
                                      lambda: metric_from_partition(pairs())])
    def test_infinite_displacement_is_not_finite(self, make):
        d, g = make(), cyc([1, 2])
        rep = norm(g, d, window=256)
        assert rep.lower_bound == INF and rep.certified_infinite
        assert fn_contains(g, d).answer == "no"
        # a window short of the support sees nothing, but the support scan
        # is exact, so its INF certifies; a word's summed INF bound does not
        for h in (g, word(g, cyc([4, 6]))):
            assert norm(h, d, window=1) == NormReport(INF, "infinite")
            assert fn_contains(h, d, window=1).answer == "no"
        idle = RulePermutation("idle", lambda a: a, lambda a: a,
                               displacement_bounds={d.key: 0})
        assert norm(word(g, idle), d, window=1).certificate == "unknown"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 300), max_size=12, unique=True)
                    .flatmap(lambda pts: st.permutations(pts).map(
                        lambda img: FiniteSupportPermutation(dict(zip(pts, img))))),
                    min_size=1, max_size=3),
           st.sampled_from(RATIONAL_BUILTINS))
    def test_support_norm_matches_range_scan(self, perms, make):
        def scan(g, d):  # the former _support_norm, kept as the oracle
            best = 0
            for a in range(g.support_bound or 0):
                b = g.forward(a)
                if b != a and d.dist(a, b) > best:
                    best = d.dist(a, b)
            return best

        d = make()
        for g in perms + [word(*perms)]:
            assert metrics._support_norm(g, d) == scan(g, d)


def range_scan_norm(g, d, window):
    """norm as it was before it tested only a certified g's candidates: the
    whole window, then the support again through moved_points; kept as the
    oracle of the one-pass norm."""
    if d.value_class == "rational":
        lower = 0
        for a in range(window):
            v = d.dist(a, g.forward(a))
            if v > lower:
                lower = v
                if not is_finite(lower):
                    break
    else:
        lower = 0
        for a in range(window):
            b = g.forward(a)
            if b == a:
                continue
            t = lower
            while d.dist_cmp(a, b, Fraction(t + 1)) >= 0 and t < window:
                t += 1
            lower = max(lower, t)
    witness = g.growth_witnesses.get(d.key)
    if witness is not None:
        pairs = []
        for j in range(1, min(window, 16) + 1):
            a, b = witness(j)
            if d.dist_cmp(a, b, Fraction(j)) < 0:
                raise PreconditionError(
                    f"growth witness pair {j} is closer than {j}")
            pairs.append((a, b))
        return NormReport(max(lower, len(pairs)), "infinite",
                          witness_pairs=pairs)
    if not is_finite(lower):
        return NormReport(lower, "infinite")

    def certified(f):
        if d.key in f.displacement_bounds:
            return f.displacement_bounds[d.key]
        if f.support_bound is not None:
            if d.value_class != "rational":
                return None
            return max((d.dist(a, f.forward(a)) for a in f.moved_points()),
                       default=0)
        if isinstance(f, WordPermutation):
            parts = [certified(e) for e in f.factors]
            if all(p is not None for p in parts):
                return sum(parts, 0)
        return None

    bound = certified(g)
    if bound is not None and not is_finite(bound) and \
            g.support_bound is not None and d.key not in g.displacement_bounds:
        return NormReport(INF, "infinite")  # the support scan is exact
    if bound is not None and is_finite(bound):
        return NormReport(lower, "finite", bound=max(bound, lower))
    return NormReport(lower, "unknown")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SymkitError as exc:
        return type(exc).__name__, str(exc)


def _finite(span, max_moves=12):
    return st.lists(st.integers(0, span), unique=True, max_size=max_moves).flatmap(
        lambda pts: st.permutations(pts).map(
            lambda img: FiniteSupportPermutation(dict(zip(pts, img)))))


NORM_PERMS = st.recursive(
    _finite(80) | st.sampled_from([
        rule("swap-pairs"), rule("shift-z"), rule("block-rotate", size=3),
        rule("identity")]),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda fs: word(*fs)) | inner.map(lambda p: p.inverse()),
    max_leaves=4)


class TestOnePassNorm:
    @settings(max_examples=200, deadline=None)
    @given(NORM_PERMS | st.builds(
               lambda k: unbounded_witness_rule(StandardOmega(), lambda i: i + k),
               st.integers(0, 3)),
           st.sampled_from(RATIONAL_BUILTINS + [SqrtMetric,
                                                lambda: metric_from_partition(pairs())]),
           st.integers(0, 150))
    def test_matches_range_scan_norm(self, g, make, window):
        d = make()
        assert _outcome(norm, g, d, window) == \
            _outcome(range_scan_norm, g, d, window)

    @settings(max_examples=100, deadline=None)
    @given(NORM_PERMS, st.integers(1, 120))
    def test_factors_match_range_scan_norm(self, f, span):
        ref = range_scan_norm(f, StandardOmega(), max(16, f.support_bound or 0))
        try:
            got = factor_fn_omega(f)
        except NoCertificateError:
            assert not ref.certified_finite
            return
        assert ref.certified_finite
        n = math.ceil(ref.bound)
        if n == 0:
            want = identity(), identity()
        else:
            want = pair_crossers(f, UniformBreakpoints(n))
        for mine, theirs in zip(got, want):
            assert [mine.forward(a) for a in range(span)] == \
                [theirs.forward(a) for a in range(span)]


class TestUnboundedWitness:
    def test_zero_pairs(self):
        w = unbounded_witness(StandardOmega(), range(100), 0)
        assert w.cycles() == []

    def test_frozen_standard_omega(self):
        w = unbounded_witness(StandardOmega(), range(10**5), 3)
        assert w.cycles() == [(0, 1), (2, 4), (3, 6)]
        rep = norm(w, StandardOmega(), window=16)
        assert rep.lower_bound >= 3

    def test_insufficient_set(self):
        d = metric_from_partition(explicit([[0, 1]], BoundedBy(2, 1)))
        with pytest.raises(InsufficientSetError):
            unbounded_witness(d, [0, 1], 2)

    def test_norm_meets_target(self):
        for J in (1, 4, 9, 17, 32):
            w = unbounded_witness(StandardOmega(), range(10**6), J)
            rep = norm(w, StandardOmega(), window=w.support_bound or 1)
            assert rep.lower_bound >= J

    def test_in_stabilizer(self):
        A = intervals_growing()
        w = unbounded_witness_in_stabilizer(StandardOmega(), A, 8)
        assert stabilizer_membership(w, A, 64).answer == "yes"
        rep = norm(w, StandardOmega(), window=w.support_bound)
        assert rep.lower_bound >= 8

    def test_rule_witness_certifies_infinite(self):
        d = StandardOmega()
        p = unbounded_witness_rule(d, lambda i: i)
        from symkit.perm import verify_window

        assert verify_window(p, 400).ok
        rep = fn_contains(p, d, window=64)
        assert rep.answer == "no"
        pairs_seen = rep.report.witness_pairs
        dists = [d.dist(a, b) for a, b in pairs_seen]
        assert all(dists[j] >= j + 1 for j in range(len(dists)))

    def test_rule_witness_inverse_keeps_the_witness(self):
        d = StandardOmega()
        p = unbounded_witness_rule(d, lambda i: i)
        pairs = norm(p, d, 64).witness_pairs
        rep = norm(p.inverse(), d, 64)
        assert rep.certified_infinite
        assert rep.witness_pairs == [(b, a) for a, b in pairs]
        assert all(p.inverse().forward(b) == a for b, a in rep.witness_pairs)
        assert norm(p.inverse().inverse(), d, 64).witness_pairs == pairs

    def test_rule_witness_under_partition_metric(self):
        d = metric_from_partition(intervals_growing())
        p = unbounded_witness_rule(d, lambda i: i)
        rep = fn_contains(p, d, window=48)
        assert rep.answer == "no"
        for j, (a, b) in enumerate(rep.report.witness_pairs, start=1):
            assert d.dist_cmp(a, b, Fraction(j)) >= 0


class TestFnContains:
    def test_finite_support_yes(self):
        assert fn_contains(cyc([0, 7]), StandardOmega()).answer == "yes"

    def test_certified_rule_yes(self):
        assert fn_contains(rule("swap-pairs"), StandardOmega()).answer == "yes"

    def test_unknown(self):
        assert fn_contains(rule("shift-z"), StandardOmega()).answer == "unknown"


class TestClassifyMetric:
    @pytest.mark.parametrize("spec,case", [
        ("standard-omega", "CaseIII"),
        ("standard-z", "CaseIII"),
        ("sqrt", "CaseII"),
        ("discrete", "CaseIV"),
        ("ultra-base2", "CaseIII"),
        ("cayley-z2", "CaseIII"),
        ("cayley-f2", "CaseIII"),
        ("partition@pairs", "CaseIII"),
        ("partition@intervals-growing", "CaseII"),
    ])
    def test_cases(self, spec, case):
        rep = classify_metric(parse_metric(spec), centers=256)
        assert rep.case == case
        assert rep.evidence["per_radius"]

    def test_infinite_unit_ball(self):
        rep = classify_metric(UniformHalf(), centers=64)
        assert rep.case == "CaseI"
        assert "overflow" in rep.evidence

    def test_one_pair_rest_singletons(self):
        A = explicit([[0, 1]], BoundedBy(2, 1))
        rep = classify_metric(metric_from_partition(A), centers=128)
        assert rep.case == "CaseIV"


class TestNetFlow:
    def test_identity(self):
        fl = net_flow(identity())
        assert fl.common_value == 0

    def test_shift(self):
        fl = net_flow(rule("shift-z"))
        assert fl.common_value == 1
        assert set(fl.per_cut.values()) == {1}

    def test_cancellation(self):
        t = rule("shift-z")
        assert net_flow(word(t, t.inverse())).common_value == 0

    def test_requires_certificate(self):
        uncertified = rule("shift-z")
        uncertified.displacement_bounds = {}
        with pytest.raises(NoCertificateError):
            net_flow(uncertified)

    def test_finite_support_certificate(self):
        # transposition across the coding: moves z=0 and z=1, flow zero
        assert net_flow(cyc([0, 2])).common_value == 0

    def test_additive(self):
        rng = random.Random(21)
        t = rule("shift-z")
        for _ in range(25):
            k1, k2 = rng.randrange(-3, 4), rng.randrange(-3, 4)
            f = word(*([t] * k1 if k1 >= 0 else [t.inverse()] * -k1)) \
                if k1 else identity_with_bound()
            g = word(*([t] * k2 if k2 >= 0 else [t.inverse()] * -k2)) \
                if k2 else identity_with_bound()
            fg = word(f, g)
            assert net_flow(fg).common_value == \
                net_flow(f).common_value + net_flow(g).common_value


def identity_with_bound():
    p = word(rule("shift-z"), rule("shift-z").inverse())
    return p


class TestFactorFnOmega:
    def test_identity(self):
        b1, b2 = factor_fn_omega(identity())
        assert all(b1.forward(a) == a for a in range(20))
        assert all(b2.forward(a) == a for a in range(20))

    def test_frozen_transposition(self):
        b1, b2 = factor_fn_omega(cyc([0, 1]))
        assert {a: b1.forward(a) for a in range(4) if b1.forward(a) != a} == \
            {0: 1, 1: 0}
        assert all(b2.forward(a) == a for a in range(20))

    def test_random_products(self):
        rng = random.Random(33)
        om = StandardOmega()
        for _ in range(25):
            arr = list(range(60))
            for _ in range(40):
                i = rng.randrange(59)
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
            f = FiniteSupportPermutation(
                {i: arr[i] for i in range(60) if arr[i] != i})
            rep = norm(f, om, window=70)
            n = int(rep.bound)
            b1, b2 = factor_fn_omega(f)
            assert all(b2.forward(b1.forward(a)) == f.forward(a)
                       for a in range(120))
            if n:
                for a in range(100):
                    img = b1.forward(a)
                    assert (a // (2 * n)) == (img // (2 * n))
                    img2 = b2.forward(a)
                    assert ((a + n) // (2 * n)) == ((img2 + n) // (2 * n))

    def test_needs_certificate(self):
        with pytest.raises(NoCertificateError):
            factor_fn_omega(rule("shift-z"), StandardOmega())
