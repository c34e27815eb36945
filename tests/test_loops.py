"""Library loops that run under one meter, against the per-call loops they
replaced.

Each oracle below is a loop as it stood when every point paid its own
top-level ``forward``/``backward`` entry.  A metered loop must give the same
answer and, under ``evaluation_budget(10**9)``, charge the same primitive
steps.  These exceptions test fewer points, so they give the same answer
and charge at most what the per-call loop charged: a word's
``moved_points``, which with every factor certified tests only its factors'
moved points, gathered through inner words without evaluating them;
``net_flow``, which tests only the moved points of a certified permutation
and evaluates each point of an uncertified one once, however many cut
windows hold it; ``Breakpoints`` (against ``PerCallBreakpoints``), which for
a certified permutation tests only its candidate points; and the certified
word ``h`` of a decomposition, which answers from its support bound up
without running its factors.
"""
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symkit.partitions as parts
from symkit import perm
from symkit.classifier import ORACLE_PLUGINS, oracle_plugin
from symkit.cli import cli_main
from symkit.errors import (
    ConvergenceError,
    EvaluationBudgetError,
    HypothesisFailureError,
    IllFormedTreeError,
    PreconditionError,
    SymkitError,
)
from symkit.localdecomp import (
    Breakpoints,
    decompose_local,
    is_local,
    pair_crossers,
)
from symkit.metrics import (
    INF,
    SqrtMetric,
    StandardOmega,
    StandardZ,
    _ceil_int,
    _certified_bound,
    _lower_bound,
    _support_norm,
    net_flow,
    norm,
)
from symkit.perm import (
    ConvergentSequence,
    FiniteSupportPermutation,
    LimitPermutation,
    Permutation,
    RulePermutation,
    WindowReport,
    WordPermutation,
    agrees_on_window,
    conjugate,
    evaluation_budget,
    format_perm,
    nat_to_z,
    parity,
    rule,
    verify_window,
    word,
    z_to_nat,
)
from symkit.trees import (
    PIVOT_SCAN_CAP,
    PartitionStabilizerOracle,
    TreeState,
    _compositions,
    branch_limit,
    build_tree,
)
from symkit.witnesses import _HalfRestriction


def metered_cost(fn, *args):
    """fn(*args) and the primitive steps it charged, or the error it raised."""
    with evaluation_budget(10**9) as m:
        try:
            return fn(*args), m.spent
        except SymkitError as exc:
            return (type(exc).__name__, str(exc)), m.spent


# --------------------------------------------------------------------------
# Oracles: the per-call loops.


class PerCallTree(TreeState):
    """Rounds, gammas and invariant checks with a public call per point.
    The gamma reads each new node's factor once, and an inf round keeps each
    pivot's images over the nodes read so far, as the library does."""

    def _gamma(self, j):
        swept, acc, waiting = self._swept, self._gamma_acc, self._waiting
        for key, node in list(self.nodes.items())[self._gamma_nodes:]:
            e = self.perm(key)
            for m in node.factor.moved_points():
                image = e.forward(m)
                if image in swept:
                    acc.add(m)
                else:
                    waiting.setdefault(image, []).append(m)
        self._gamma_nodes = len(self.nodes)
        for p in self._points(j):
            if p not in swept:
                swept.add(p)
                acc.add(p)
                acc.update(waiting.pop(p, ()))
        return frozenset(acc)

    def build_round(self):
        {"binary": self._round_binary,
         "unbounded": self._round_unbounded,
         "inf": self._round_inf}[self.mode]()

    def _round_binary(self):
        j = self.rounds
        gamma = self._gamma(j)
        self.gammas.append(gamma)
        M = self.oracle.max_orbit
        if M is None or M < 2:
            raise PreconditionError(
                "binary mode needs an oracle with a declared orbit bound >= 2")
        pivot_orbit = None
        for alpha in range(PIVOT_SCAN_CAP):
            if alpha in gamma:
                continue
            r = self.oracle.orbit(gamma, alpha, M + 1)
            if r.kind == "atleast" or len(r.points) > M:
                raise HypothesisFailureError(
                    f"orbit of {alpha} exceeds the declared maximum {M}",
                    level=j, gamma=gamma)
            if len(r.points) == M:
                pivot_orbit = sorted(r.points)
                break
        if pivot_orbit is None:
            raise HypothesisFailureError(
                f"no orbit of size {M} found", level=j, gamma=gamma)
        a, b = pivot_orbit[0], pivot_orbit[1]
        self.alphas.append(a)
        self.betas.append(b)
        for key in self.level_keys(j):
            g = self.perm(key)
            for bit, target in ((0, a), (1, b)):
                pre = g.backward(target)
                h = self.oracle.act(gamma, a, pre)
                self._add_node(key + (bit,), h, gamma)
        self.rounds += 1

    def _round_unbounded(self):
        j = self.rounds
        gamma = self._gamma(j)
        self.gammas.append(gamma)
        level = self.level_keys(j)
        need = max(2, len(level) * self.n_at(j))
        alpha = orbit_pts = None
        for cand in range(PIVOT_SCAN_CAP):
            if cand in gamma:
                continue
            r = self.oracle.orbit(gamma, cand, need)
            if len(r.points) >= need:
                alpha, orbit_pts = cand, sorted(r.points)
                break
        if alpha is None:
            raise HypothesisFailureError(
                f"no orbit of size >= {need} found", level=j, gamma=gamma)
        self.alphas.append(alpha)
        used_images: set = set()
        for key in level:
            g = self.perm(key)
            for k in range(self.n_at(j)):
                chosen = next((tau for tau in orbit_pts
                               if g.forward(tau) not in used_images), None)
                if chosen is None:
                    raise HypothesisFailureError(
                        f"orbit of {alpha} too small to avoid collisions",
                        level=j, gamma=gamma)
                used_images.add(g.forward(chosen))
                self._add_node(key + (k,),
                               self.oracle.act(gamma, alpha, chosen), gamma)
        self.rounds += 1

    def _round_inf(self):
        j = self.rounds + 1
        gamma_sel = frozenset(self._gamma(j) | self._used_targets)
        self.gammas.append(gamma_sel)
        while len(self.alphas) < j:
            need = 16 + 2 * len(self.nodes)
            pivot = None
            for cand in range(PIVOT_SCAN_CAP):
                if cand in gamma_sel:
                    continue
                r = self.oracle.orbit(gamma_sel, cand, need)
                if len(r.points) >= need:
                    pivot = cand
                    break
            if pivot is None:
                raise HypothesisFailureError(
                    "no point with a large enough orbit", level=j,
                    gamma=gamma_sel)
            self.alphas.append(pivot)
        new_keys = []
        for r in range(1, j + 1):
            new_keys.extend(_compositions(j - r, r))
        for key in sorted(new_keys):
            parent = key[:-1]
            g = self.perm(parent)
            level = len(key) - 1
            pivot = self.alphas[level]
            pts = self._points(level)
            lam = set(pts) | {g.backward(p) for p in pts}
            if pivot in lam:
                raise HypothesisFailureError(
                    f"pivot {pivot} pinned by the event set of {key}",
                    level=j, gamma=frozenset(lam))
            avoid = set(lam) | set(self.alphas) | self._used_targets
            forbidden_images, read = self._images.get(level, (set(), 0))
            forbidden_images.update(self.perm(k).forward(pivot)
                                    for k in list(self.nodes)[read:])
            self._images[level] = forbidden_images, len(self.nodes)
            chosen = None
            n = 16
            while chosen is None:
                r = self.oracle.orbit(frozenset(lam), pivot, n)
                chosen = next((tau for tau in sorted(r.points)
                               if tau not in avoid and
                               g.forward(tau) not in forbidden_images), None)
                if chosen is None:
                    if r.kind == "full":
                        raise HypothesisFailureError(
                            f"orbit of pivot {pivot} exhausted", level=j,
                            gamma=frozenset(lam))
                    n *= 2
            self._used_targets.add(chosen)
            h = self.oracle.act(frozenset(lam), pivot, chosen)
            self._add_node(key, h, frozenset(lam))
        self.rounds += 1

    def verify_invariants(self):
        checked_factors = 0
        for key, node in self.nodes.items():
            if node.parent is None:
                continue
            checked_factors += 1
            if isinstance(node.factor, FiniteSupportPermutation) and \
                    node.event.isdisjoint(node.factor.moved_points()):
                continue
            for p in node.event:
                if node.factor.forward(p) != p:
                    raise IllFormedTreeError(
                        f"factor of {key} moves {p} of its event set")
        sibling_checks = 0
        for j in range(self.rounds):
            if self.mode == "binary":
                pivot = self.alphas[j]
                for key in self.level_keys(j):
                    images = {self.perm(key + (b,)).forward(pivot)
                              for b in (0, 1)}
                    if len(images) != 2:
                        raise IllFormedTreeError(
                            f"children of {key} collide on pivot {pivot}")
                    sibling_checks += 1
            elif self.mode == "unbounded":
                pivot = self.alphas[j]
                keys = [k for k in self.nodes if len(k) == j + 1]
                images = [self.perm(k).forward(pivot) for k in keys]
                if len(set(images)) != len(images):
                    raise IllFormedTreeError(
                        f"level {j + 1} elements collide on pivot {pivot}")
                sibling_checks += len(keys)
        return {"factors_checked": checked_factors,
                "sibling_checks": sibling_checks}


class PerCallSequence(ConvergentSequence):
    def verify_to(self, depth):
        for j in range(self.verified_depth + 1, depth + 1):
            self._check_level(j)
            self.verified_depth = j

    def _check_level(self, j):
        g_prev, _ = self.term(j - 1)
        g_j, gamma_j = self.term(j)
        for i in range(j):
            if i not in gamma_j:
                raise ConvergenceError(
                    f"point {i} missing from Gamma_{j}", level=j, point=i,
                    condition="containment")
            pre = g_prev.backward(i)
            if pre not in gamma_j:
                raise ConvergenceError(
                    f"preimage {pre} of point {i} under g_{j-1} missing from Gamma_{j}",
                    level=j, point=i, condition="containment")
        for c in sorted(gamma_j):
            if g_j.forward(c) != g_prev.forward(c):
                raise ConvergenceError(
                    f"g_{j} disagrees with g_{j-1} at {c} of Gamma_{j}",
                    level=j, point=c, condition="coset")


def per_call_constant_tail(seq_terms, depth):
    """A sequence of the terms capped at the last, verified only that far."""
    last = max(depth - 1, 0)
    seq = PerCallSequence(lambda j: seq_terms(min(j, last)))
    verify = seq.verify_to
    seq.verify_to = lambda n: verify(min(n, last))
    return seq


def per_call_branch_limit(tree, choice):
    choice = tuple(choice)
    prefixes = [choice[:i] for i in range(len(choice) + 1)]
    depth = len(choice)

    def lean_gamma(j):
        pts = set(tree._points(j))
        prev = tree.perm(prefixes[j])
        return frozenset(pts | {prev.backward(p) for p in pts})

    def base_terms(j):
        return tree.perm(prefixes[min(j + 1, depth)]), lean_gamma(j)

    seq = per_call_constant_tail(base_terms, depth)
    seq.verify_to(depth)
    return LimitPermutation(seq)


class PerCallBreakpoints(Breakpoints):
    def __init__(self, f, count):
        self._scanned = self._max_seen = 0
        super().__init__(f, count)

    def ensure(self, count):
        while len(self.a) <= count:
            prev = self.a[-1]
            while self._scanned < prev:
                x = self._scanned
                self._max_seen = max(self._max_seen, self.f.forward(x) + 1,
                                     self.f.backward(x) + 1)
                self._scanned += 1
            self.a.append(max(prev + 1, self._max_seen))


def per_call_is_local(f, probe_prefix):
    witnesses = []
    running_max = -1
    for j in range(1, probe_prefix + 1):
        running_max = max(running_max, f.forward(j - 1), f.backward(j - 1))
        if running_max < j:
            witnesses.append(j)
    return witnesses


def per_call_moved_points(p):
    return [a for a in range(p.support_bound) if p.forward(a) != a]


def per_factor_moved_points(p):
    """A word's moved points through each factor's, evaluating inner words."""
    if isinstance(p, FiniteSupportPermutation):
        return sorted(p._map)
    if not isinstance(p, WordPermutation) or \
            any(f.support_bound is None for f in p.factors):
        return per_call_moved_points(p)
    candidates = {a for f in p.factors for a in per_factor_moved_points(f)}
    return [a for a in sorted(candidates) if p.forward(a) != a]


def per_call_support_norm(g, d):
    return max((d.dist(a, g.forward(a)) for a in per_call_moved_points(g)),
               default=0)


def per_call_lower_bound(g, d, window):
    if d.value_class == "rational":
        best = 0
        for a in range(window):
            v = d.dist(a, g.forward(a))
            if v > best:
                best = v
                if best == INF:
                    break
        return best
    best_t = 0
    for a in range(window):
        b = g.forward(a)
        if b == a:
            continue
        t = best_t
        while d.dist_cmp(a, b, Fraction(t + 1)) >= 0 and t < window:
            t += 1
        best_t = max(best_t, t)
    return best_t


def per_call_net_flow(f, cuts):
    bound = _certified_bound(f, StandardZ())
    b = _ceil_int(bound) if bound else 1
    per_cut = {}
    for c in cuts:
        up = down = 0
        for z in range(c - b, c + b):
            image = nat_to_z(f.forward(z_to_nat(z)))
            if z < c <= image:
                up += 1
            if image < c <= z:
                down += 1
        per_cut[c] = up - down
    return per_cut


def per_call_parity(p):
    mapping = {a: p.forward(a) for a in per_call_moved_points(p)}
    seen = set()
    transpositions = 0
    for start in mapping:
        if start in seen:
            continue
        length = 0
        b = start
        while b not in seen:
            seen.add(b)
            b = mapping[b]
            length += 1
        transpositions += length - 1
    return "even" if transpositions % 2 == 0 else "odd"


def per_call_verify_window(p, n):
    seen = {}
    for alpha in range(n):
        try:
            beta = p.forward(alpha)
            if not isinstance(beta, int) or beta < 0:
                return WindowReport(False, n, {
                    "kind": "forward-not-natural", "point": alpha, "value": beta})
            if beta in seen and seen[beta] != alpha:
                return WindowReport(False, n, {
                    "kind": "forward-collision", "point": alpha,
                    "other": seen[beta], "value": beta})
            seen[beta] = alpha
            if p.backward(beta) != alpha:
                return WindowReport(False, n, {
                    "kind": "backward-of-forward", "point": alpha, "value": beta})
            gamma = p.backward(alpha)
            if not isinstance(gamma, int) or gamma < 0:
                return WindowReport(False, n, {
                    "kind": "backward-not-natural", "point": alpha, "value": gamma})
            if p.forward(gamma) != alpha:
                return WindowReport(False, n, {
                    "kind": "forward-of-backward", "point": alpha, "value": gamma})
        except EvaluationBudgetError:
            raise
        except Exception as exc:
            return WindowReport(False, n, {
                "kind": "exception", "point": alpha, "error": repr(exc)})
    return WindowReport(True, n)


# --------------------------------------------------------------------------
# Equivalence.


def _build(cls, oracle, mode, depth):
    n_seq = [i + 1 for i in range(depth)] if mode == "unbounded" else None
    tree = cls(mode, oracle_plugin(oracle), n_sequence=n_seq)

    def grow():
        for _ in range(depth):
            tree.build_round()

    return tree, metered_cost(grow)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_PLUGINS)),
       st.sampled_from(["binary", "unbounded", "inf"]),
       st.integers(0, 6), st.data())
def test_tree_loops_match_per_call_loops(oracle, mode, depth, data):
    tree, built = _build(TreeState, oracle, mode, depth)
    ref, ref_built = _build(PerCallTree, oracle, mode, depth)
    assert built == ref_built
    assert (tree.alphas, tree.betas, tree.gammas) == \
        (ref.alphas, ref.betas, ref.gammas)
    assert [format_perm(tree.perm(k)) for k in tree.nodes] == \
        [format_perm(ref.perm(k)) for k in ref.nodes]
    if built[0] is not None:
        return  # the build stopped at a failed hypothesis
    assert metered_cost(tree.verify_invariants) == \
        metered_cost(ref.verify_invariants)
    window = range(4 * depth + 4)
    leaves = [k for k in tree.nodes if len(k) == max(map(len, tree.nodes))]
    for choice in data.draw(st.lists(st.sampled_from(leaves), max_size=4)):
        images, spent = metered_cost(
            lambda: [branch_limit(tree, choice).forward(a) for a in window])
        ref_images, ref_spent = metered_cost(
            lambda: [per_call_branch_limit(ref, choice).forward(a)
                     for a in window])
        assert images == ref_images
        # both read the same capped terms and verify only to depth - 1
        assert spent == ref_spent


def _finite(span, max_moves=12):
    return st.lists(st.integers(0, span), unique=True, max_size=max_moves).flatmap(
        lambda pts: st.permutations(pts).map(
            lambda img: FiniteSupportPermutation(dict(zip(pts, img)))))


RULES = [rule("shift-z"), rule("swap-pairs"), rule("block-rotate", size=3),
         rule("identity")]
perms = st.recursive(
    _finite(60) | st.sampled_from(RULES),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda fs: word(*fs)) | inner.map(lambda p: p.inverse()),
    max_leaves=5)
certified = st.recursive(
    _finite(60) | st.just(rule("identity")),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda fs: word(*fs)),
    max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(_finite(300, 40), st.integers(1, 10), st.integers(1, 400))
def test_breakpoints_and_decompose_match(f, count, window):
    def run(decompose):
        def go():
            g, h = decompose()
            return [h.forward(g.forward(a)) for a in range(window)], g.bp.a
        return metered_cost(go)

    answer, spent = run(lambda: decompose_local(f, count))
    ref_answer, ref_spent = run(lambda: pair_crossers(f, PerCallBreakpoints(f, count)))
    assert answer == ref_answer and spent <= ref_spent
    a, spent = metered_cost(lambda: Breakpoints(f, count).a)
    ref_a, ref_spent = metered_cost(lambda: PerCallBreakpoints(f, count).a)
    assert a == ref_a and spent <= ref_spent


@settings(max_examples=150, deadline=None)
@given(perms, st.sampled_from([StandardOmega(), StandardZ(), SqrtMetric()]),
       st.integers(0, 120))
def test_lower_bound_and_norm_match(g, d, window):
    lower, spent = metered_cost(_lower_bound, g, d, window)
    ref_lower, ref_spent = metered_cost(per_call_lower_bound, g, d, window)
    assert lower == ref_lower
    if g.support_bound is None or window < g.support_bound:
        assert spent == ref_spent
    else:  # a window covering g's support tests each of its candidates once
        points, found = metered_cost(g._candidates)
        assert spent == found + metered_cost(lambda: [g.forward(a) for a in points])[1]
    assert norm(g, d, window).lower_bound == lower
    if g.support_bound is not None and d.value_class == "rational":
        assert _support_norm(g, d) == per_call_support_norm(g, d)


@settings(max_examples=100, deadline=None)
@given(_finite(40, 8), st.integers(-3, 3), st.integers(0, 12))
def test_net_flow_matches(finite, k, reach):
    t = rule("shift-z")
    f = word(finite, *([t] * k if k >= 0 else [t.inverse()] * -k) or [t, t.inverse()])
    cuts = range(-reach, reach + 1)
    flow, spent = metered_cost(net_flow, f, cuts)
    ref_per_cut, ref_spent = metered_cost(per_call_net_flow, f, cuts)
    assert flow.per_cut == ref_per_cut and spent <= ref_spent


@settings(max_examples=100, deadline=None)
@given(certified, st.integers(0, 12))
def test_certified_net_flow_matches(f, reach):
    cuts = range(-reach, reach + 1)
    flow, spent = metered_cost(net_flow, f, cuts)
    assert flow.per_cut == per_call_net_flow(f, cuts)


@settings(max_examples=200, deadline=None)
@given(perms | certified)
# a sole factor's own scan, without running the word on its moved points
@example(word(_HalfRestriction(FiniteSupportPermutation({0: 1, 1: 0}),
                               parts.pairs(), 0)))
def test_moved_points_and_parity_match(p):
    if p.support_bound is None:
        return
    moved, spent = metered_cost(p.moved_points)
    ref_moved, ref_spent = metered_cost(per_call_moved_points, p)
    assert moved == ref_moved
    assert spent <= ref_spent
    assert parity(p) == per_call_parity(p)


half_restrictions = st.builds(
    lambda ks, side: _HalfRestriction(FiniteSupportPermutation(
        {2 * k + e: 2 * k + 1 - e for k in ks for e in (0, 1)}), parts.pairs(), side),
    st.sets(st.integers(0, 30), max_size=8), st.integers(0, 1))
certified_with_scanned_leaves = st.recursive(
    _finite(60) | half_restrictions,
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda fs: word(*fs)),
    max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(certified_with_scanned_leaves)
def test_word_moved_points_charge_at_most_the_factorwise_scan(p):
    """A certified leaf that is neither finite nor a word is scanned alone,
    as before inner words were left unevaluated."""
    moved, spent = metered_cost(p.moved_points)
    ref_moved, ref_spent = metered_cost(per_factor_moved_points, p)
    assert moved == ref_moved
    assert spent <= ref_spent


def test_certified_breakpoints_test_candidate_points_only():
    """Only the three moved points can lift the running maximum; the scan
    below a(n) took 12 * 10^6 steps."""
    f = word(FiniteSupportPermutation({0: 3_000_000, 3_000_000: 0}),
             FiniteSupportPermutation({1: 3_000_000, 3_000_000: 1}))
    a, spent = metered_cost(lambda: Breakpoints(f, 8).a)
    assert a == [0, 1] + list(range(3_000_001, 3_000_008))
    assert spent <= 3 * 4  # each moved point once each way through two factors
    assert (f.forward(0), f.backward(0)) == (1, 3_000_000)


def test_certified_word_answers_from_its_support_bound_for_free():
    w = word(FiniteSupportPermutation({0: 5, 5: 0}), rule("identity"))
    assert w.support_bound == 6
    for a in (6, 7, 10**9):
        assert metered_cost(w.forward, a) == (a, 0)
        assert metered_cost(w.backward, a) == (a, 0)
    assert metered_cost(w.forward, 5) == (0, 2)
    _, h = decompose_local(FiniteSupportPermutation({0: 3, 3: 0}), 4)
    assert metered_cost(h.forward, h.support_bound) == (h.support_bound, 0)


def test_nested_word_moved_points_evaluate_only_the_top_word():
    p = word(word(FiniteSupportPermutation({0: 1, 1: 0})))
    assert metered_cost(p.moved_points) == ([0, 1], 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RULES[:3]), _finite(30))
def test_conjugate_moved_points_match(f, t):
    """A conjugate by an uncertified rule keeps the scan below its bound."""
    c = conjugate(f, t)
    assert metered_cost(c.moved_points) == metered_cost(per_call_moved_points, c)
    assert c.moved_points() == sorted(f.forward(a) for a in t.moved_points())


def _raises(m):
    raise ValueError(f"no image for {m}")


MISBEHAVING = [
    RulePermutation("halve", lambda m: m // 2, lambda m: 2 * m),
    RulePermutation("negative", lambda m: m - 3, lambda m: m + 3),
    RulePermutation("raises", lambda m: m if m < 7 else _raises(m), lambda m: m),
    RulePermutation("lopsided", lambda m: m ^ 1, lambda m: m),
    RulePermutation("str", lambda m: str(m) if m > 4 else m, lambda m: m),
]


@settings(max_examples=150, deadline=None)
@given(perms | st.sampled_from(MISBEHAVING), st.integers(0, 150))
def test_verify_window_and_is_local_match(p, n):
    assert metered_cost(verify_window, p, n) == \
        metered_cost(per_call_verify_window, p, n)
    if per_call_verify_window(p, n).ok:
        local, spent = metered_cost(is_local, p, n)
        assert (local.invariant_prefixes, spent) == \
            metered_cost(per_call_is_local, p, n)
        q = word(p, rule("swap-pairs"))
        assert metered_cost(agrees_on_window, p, q, n) == metered_cost(
            lambda: all(p.forward(a) == q.forward(a) for a in range(n)))


def _window_cost(window):
    """Steps and calls into the tail element of a depth-8 stab-a0 branch
    limit, built and forwarded over [0, window)."""
    tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 8)
    element = tree.perm((1, 0) * 4)
    calls = [0]

    def counted(method):
        def call(alpha):
            calls[0] += 1
            return method(alpha)
        return call
    element._fwd, element._bwd = counted(element._fwd), counted(element._bwd)

    def run():
        g = branch_limit(tree, (1, 0) * 4)
        return [g.forward(a) for a in range(window)]
    _, spent = metered_cost(run)
    return spent / window, calls[0] / window


def test_branch_limit_cost_per_point_stays_flat():
    """A level past a constant tail's last term checks nothing, so the cost
    per point does not grow with the window."""
    small, large = _window_cost(1000), _window_cost(8000)
    assert large[0] <= 1.05 * small[0]
    assert large[1] <= 1.05 * small[1]
    # past the last term, one forward answers each point
    assert small[1] <= 1.05


# --------------------------------------------------------------------------
# Budget semantics of a loop.


def _deep_swaps(levels):
    """A word of 2^levels swap-pairs factors: the identity, at 2^levels steps."""
    w = rule("swap-pairs")
    for _ in range(levels):
        w = word(w, w)
    return w


WORD_OF_RULES = word(rule("swap-pairs"), rule("swap-pairs"))
LOOPS = {
    "verify_window": lambda: verify_window(WORD_OF_RULES, 1000),
    "agrees_on_window": lambda: agrees_on_window(
        WORD_OF_RULES, rule("identity"), 1000),
    "moved_points": lambda: conjugate(WORD_OF_RULES, FiniteSupportPermutation(
        {0: 999, 999: 0})).moved_points(),
    "parity": lambda: parity(conjugate(rule("swap-pairs"),
                                       FiniteSupportPermutation({0: 999, 999: 0}))),
    "is_local": lambda: is_local(WORD_OF_RULES, 1000),
    "breakpoints": lambda: Breakpoints(rule("shift-z"), 1000),
    "net_flow": lambda: net_flow(rule("shift-z"), range(-1000, 1000)),
    "norm": lambda: norm(WORD_OF_RULES, StandardOmega(), 1000),
    "tree": lambda: build_tree(
        PartitionStabilizerOracle(parts.a0()), "binary", 8).verify_invariants(),
}


class TestLoopBudget:
    @pytest.mark.parametrize("name", sorted(LOOPS))
    def test_loop_charges_the_installed_meter(self, name):
        with evaluation_budget(10**9) as m:
            LOOPS[name]()
        assert 1000 <= m.spent < 10**6
        with evaluation_budget(m.spent - 1) as small:
            with pytest.raises(EvaluationBudgetError) as err:
                LOOPS[name]()
        assert (err.value.limit, err.value.spent) == (m.spent - 1, m.spent)
        assert small.spent == m.spent

    def test_top_level_loop_shares_one_default_budget(self):
        with pytest.raises(EvaluationBudgetError) as err:
            verify_window(WORD_OF_RULES, 600_000)
        err = err.value
        assert (err.limit, err.spent, err.form) == (10**6, 10**6 + 1, "rule")
        assert verify_window(WORD_OF_RULES, 1000).ok  # the next loop starts fresh

    def test_cli_reports_a_loop_budget_as_one_error_line(self, capsys):
        code = cli_main(["perm", "verify", "--perm",
                         "word:[rule:swap-pairs,rule:swap-pairs]",
                         "--window", "600000"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: evaluation step budget exhausted: " \
                      "limit 1000000, form rule\n"

    def test_previous_meter_restored_after_a_loop_raises(self):
        deep = _deep_swaps(19)  # 2^19 steps: two on one meter pass 10^6
        with pytest.raises(EvaluationBudgetError):
            verify_window(WORD_OF_RULES, 600_000)
        assert perm._local.state.meter is None
        assert deep.forward(0) == 0  # a fresh default, not the spent one
        with pytest.raises(ValueError):
            is_local(MISBEHAVING[2], 100)  # a rule that raises past 6
        assert perm._local.state.meter is None
        assert deep.forward(0) == deep.forward(0) == 0
        with evaluation_budget(100) as outer:
            with pytest.raises(EvaluationBudgetError):
                with evaluation_budget(5):
                    is_local(WORD_OF_RULES, 100)
            with pytest.raises(ValueError):
                is_local(MISBEHAVING[2], 100)
            assert perm._local.state.meter is outer
            spent = outer.spent
            WORD_OF_RULES.forward(0)
            assert outer.spent == spent + 2

    def test_thread_started_inside_an_evaluation_gets_its_own_meter(self):
        deep = _deep_swaps(4)  # 17 steps a point: past the outer meter's 10
        results = []

        def spawn(m):
            t = threading.Thread(target=lambda: results.append(
                verify_window(word(deep, rule("swap-pairs")), 1).ok))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()
            return m

        p = RulePermutation("spawn", spawn, lambda m: m)
        with evaluation_budget(10) as m:
            assert agrees_on_window(p, rule("identity"), 1)
        assert results == [True]
        assert m.spent == 2


# --------------------------------------------------------------------------
# Entry-count guard.


def test_library_loops_make_no_top_level_entries(monkeypatch):
    """A depth-8 stab-a0 build, its invariants, four branch limits with
    their windows and one finite decompose_local enter perm's top-level
    path only for the test's own window points.  Before loops ran under
    one meter, the build's gammas alone made about 4,800 top-level
    backward calls."""
    entries = {"forward": 0, "backward": 0}

    def counting(name):
        inner = getattr(Permutation, name)

        def call(self, alpha):
            if perm._local.state.meter is None:
                entries[name] += 1
            return inner(self, alpha)
        return call

    for name in entries:
        monkeypatch.setattr(Permutation, name, counting(name))
    tree = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 8)
    tree.verify_invariants()
    window = range(4 * 8 + 4)
    for choice in ((0,) * 8, (1,) * 8, (1, 0, 1, 1, 0, 1, 0, 1), (0, 1) * 4):
        g = branch_limit(tree, choice)
        [g.forward(a) for a in window]
    f = FiniteSupportPermutation({a: (7 * a) % 60 for a in range(60)})
    decompose_local(f, 8)
    assert sum(entries.values()) <= 4 * len(window)
