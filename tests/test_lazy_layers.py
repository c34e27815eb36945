"""Settled points in the lazy layers, against the layers they replaced.

The oracles below are the local factor with one crosser dict per block and
the half restriction that looks up the block of every point.  The local
factor must give the same answers and, under ``evaluation_budget(10**9)``,
charge the same primitive steps in any evaluation order; the half
restriction gives the same answers and charges at most the oracle's, since
it no longer steps on h at or above h's support bound.  Tree elements must
carry the certificates of their flat factor word.
"""
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symkit.partitions as parts
from symkit.classifier import ORACLE_PLUGINS, oracle_plugin
from symkit.errors import NoCertificateError, PreconditionError, SymkitError
from symkit.localdecomp import (
    Breakpoints,
    UniformBreakpoints,
    _PairedExchanger,
    decompose_local,
)
from symkit.metrics import factor_fn_omega
from symkit.partitions import Partition
from symkit.perm import (
    FiniteSupportPermutation,
    Permutation,
    WordPermutation,
    evaluation_budget,
    identity,
    rule,
    word,
)
from symkit.trees import TreeState
from symkit.witnesses import _HalfRestriction, factor_through, p_equiv_witness


def metered_cost(fn):
    """fn() and the primitive steps it charged, or the error it raised."""
    with evaluation_budget(10**9) as m:
        try:
            return fn(), m.spent
        except SymkitError as exc:
            return (type(exc).__name__, str(exc)), m.spent


# --------------------------------------------------------------------------
# Oracles.


class BlockPairedExchanger(Permutation):
    """The local factor with one crosser dict per paired block; a block pair
    of a certified f scans only f's candidates there, and a certified f has
    every block below the bound paired, in order, before the first query."""

    def __init__(self, f, bp):
        super().__init__()
        self.f = f
        self.bp = bp
        self._cache = {}
        self._points = None
        if f.support_bound is not None:
            self._points = list(bp._points if isinstance(bp, Breakpoints)
                                else f._candidates())
            i = 0
            while bp.value(2 * i) < f.support_bound:
                i += 1
            self.support_bound = bp.value(2 * i)
            for block in range(i):
                self._pairing(block)

    def _pairing(self, i):
        if i in self._cache:
            return self._cache[i]
        lo, mid, hi = (self.bp.value(2 * i + k) for k in range(3))
        f = self.f
        below = range(lo, mid) if self._points is None else \
            [x for x in self._points if lo <= x < mid]
        above = range(mid, hi) if self._points is None else \
            [x for x in self._points if mid <= x < hi]
        ups = [x for x in below if f.forward(x) >= mid]
        downs = [x for x in above if f.forward(x) < mid]
        if len(ups) != len(downs):
            raise PreconditionError(
                f"crossing counts differ at boundary {mid}: {len(ups)} up vs "
                f"{len(downs)} down")
        mapping = {}
        for a, b in zip(ups, downs):
            mapping[a] = b
            mapping[b] = a
        self._cache[i] = mapping
        return mapping

    def _fwd(self, alpha):
        if self.support_bound is not None and alpha >= self.support_bound:
            return alpha
        return self._pairing(self.bp.index_of(alpha) // 2).get(alpha, alpha)

    _bwd = _fwd


class BlockwiseHalfRestriction(_HalfRestriction):
    """The half restriction that looks up the block of every point."""

    def _fwd(self, alpha):
        return self.h._fwd(alpha) if self._mine(self.B.block_of(alpha)) else alpha

    def _bwd(self, alpha):
        return self.h._bwd(alpha) if self._mine(self.B.block_of(alpha)) else alpha


# --------------------------------------------------------------------------
# Local factors.


def _finite(span, max_moves=12):
    return st.lists(st.integers(0, span), unique=True, max_size=max_moves).flatmap(
        lambda pts: st.permutations(pts).map(
            lambda img: FiniteSupportPermutation(dict(zip(pts, img)))))


RULES = [rule("swap-pairs"), rule("block-rotate", size=3), rule("shift-z"),
         rule("identity")]
perms = st.recursive(
    _finite(120) | st.sampled_from(RULES),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda fs: word(*fs)) | inner.map(lambda p: p.inverse()),
    max_leaves=4)


def _order(points, how, rng):
    points = sorted(set(points))
    if how == "descending":
        points.reverse()
    elif how == "shuffled":
        rng.shuffle(points)
    return points


def _evaluate(g, points):
    """g's images of the points, alternating direction point by point."""
    return [(g.forward if k % 2 else g.backward)(a) for k, a in enumerate(points)]


@settings(max_examples=200, deadline=None)
@given(perms, st.sampled_from(["decompose", "norm"]), st.integers(1, 10),
       st.integers(1, 300), st.sampled_from(["ascending", "descending",
                                             "shuffled"]),
       st.randoms(use_true_random=False))
def test_local_factors_match_block_oracle(f, via, count, window, how, rng):
    if via == "norm":
        try:
            g = factor_fn_omega(f)[0]
        except NoCertificateError:
            g = None
        assume(isinstance(g, _PairedExchanger))  # a certified nonzero norm
        n = g.bp.n
        new = lambda: factor_fn_omega(f, bound=n)[0]
        old = lambda: BlockPairedExchanger(f, UniformBreakpoints(n))
    else:
        new = lambda: decompose_local(f, count)[0]
        old = lambda: BlockPairedExchanger(f, Breakpoints(f, count))
    points = list(range(window))
    if f.support_bound is not None:  # far points cost nothing above the bound
        points += [f.support_bound + 10**6 + k for k in range(5)]
    points = _order(points, how, rng)

    def run(make):
        def go():
            g = make()
            first = _evaluate(g, points)
            return first, _evaluate(g, points[::-1]), g.support_bound
        return metered_cost(go)

    assert run(new) == run(old)


# --------------------------------------------------------------------------
# Half restrictions.


def _block_perm(B, rng, blocks):
    mapping = {}
    it = B.iter_blocks()
    for _ in range(blocks):
        members = B.block_members(next(it))
        images = members[:]
        rng.shuffle(images)
        mapping.update({x: y for x, y in zip(members, images) if x != y})
    return FiniteSupportPermutation(mapping)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["pairs", "a0", "intervals-growing"]),
       st.integers(0, 8), st.booleans(), st.integers(0, 1),
       st.sampled_from(["ascending", "descending", "shuffled"]),
       st.randoms(use_true_random=False))
def test_half_restrictions_match_blockwise_oracle(key, blocks, swap, side, how,
                                                  rng):
    B = parts.parse_partition(key)
    h = _block_perm(B, rng, blocks)
    if swap and key == "pairs":
        h = word(h, rule("swap-pairs"))  # uncertified: no shortcut to take
    points = list(range(300)) + [5000 + k for k in range(5)]
    points = _order(points, how, rng)

    def run(cls):
        def go():
            p = cls(h, B, side)
            return _evaluate(p, points), _evaluate(p.inverse(), points)
        return metered_cost(go)

    (images, spent), (ref_images, ref_spent) = \
        run(_HalfRestriction), run(BlockwiseHalfRestriction)
    assert images == ref_images
    assert spent <= ref_spent
    if h.support_bound is None:
        assert spent == ref_spent


# --------------------------------------------------------------------------
# Tree elements.


def _certificates(p):
    return p.support_bound, p.displacement_bounds


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_PLUGINS)),
       st.sampled_from(["binary", "unbounded", "inf"]), st.integers(0, 6))
def test_tree_element_certificates_are_the_flat_words(oracle, mode, depth):
    n_seq = [i + 1 for i in range(depth)] if mode == "unbounded" else None
    tree = TreeState(mode, oracle_plugin(oracle), n_sequence=n_seq)
    try:
        for _ in range(depth):
            tree.build_round()
    except SymkitError:
        pass  # the nodes built so far still count
    for key, node in tree.nodes.items():
        assert _certificates(tree.perm(key)) == \
            _certificates(WordPermutation(node.factors))


FACTORS = [FiniteSupportPermutation({0: 5, 5: 0}), rule("swap-pairs"),
           rule("block-rotate", size=4), rule("shift-z"), rule("identity"),
           word(rule("swap-pairs"), rule("block-rotate", size=3)), identity()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=6),
                min_size=1, max_size=4))
def test_tree_element_certificates_over_mixed_factors(branches):
    """Chains of rules and words carry displacement bounds and leave the
    support bound unset, which the oracles' finite factors never do."""
    tree = TreeState("binary", oracle_plugin("stab-pairs"))
    for b, chain in enumerate(branches):
        key = ()
        for factor in chain:
            key += (b,)
            if key not in tree.nodes:
                tree._add_node(key, factor, frozenset())
    for key, node in tree.nodes.items():
        assert _certificates(tree.perm(key)) == \
            _certificates(WordPermutation(node.factors))


# --------------------------------------------------------------------------
# Count guards: a count stays put where a clock on a shared machine does not.


def _counting(monkeypatch, cls, name, calls):
    inner = getattr(cls, name)

    def call(self, *args):
        calls.append(args[0])
        return inner(self, *args)
    monkeypatch.setattr(cls, name, call)


def _two_passes(g, calls):
    """The block lookups of a descending then an ascending pass over
    [0, 1000) of the local factor g, which must answer the same both times."""
    calls.clear()
    first = [g.forward(a) for a in reversed(range(1000))][::-1]
    first_calls = calls[:]
    calls.clear()
    assert [g.forward(a) for a in range(1000)] == first
    return first_calls, calls


def test_settled_local_factor_points_make_no_block_lookups(monkeypatch):
    rng = random.Random(21)
    pts = rng.sample(range(200), 60)
    images = pts[:]
    rng.shuffle(images)
    settled, _ = decompose_local(FiniteSupportPermutation(dict(zip(pts, images))), 8)
    lazy, _ = decompose_local(word(rule("swap-pairs"), rule("shift-z")), 8)
    calls = []
    _counting(monkeypatch, Breakpoints, "index_of", calls)
    _counting(monkeypatch, _PairedExchanger, "_pairing", calls)
    # a certified f's blocks are all paired when its factor is built
    assert _two_passes(settled, calls) == ([], [])
    # an uncertified f's blocks pair on request; from the top down, the
    # frontier moves only last, and then covers the window
    first, second = _two_passes(lazy, calls)
    assert first and second == []


def test_half_restriction_looks_up_blocks_only_below_the_bound(monkeypatch):
    B = parts.intervals_growing()
    w = p_equiv_witness(parts.intervals_growing(), B, depth=6)
    h = _block_perm(B, random.Random(22), 6)
    p, q = factor_through(h, w, B, window=1000)
    calls = []
    _counting(monkeypatch, Partition, "block_of", calls)
    images = [q.forward(p.forward(a)) for a in range(1000)]
    assert images == [h.forward(a) for a in range(1000)]
    assert calls and max(calls) < h.support_bound
    assert len(calls) == 2 * h.support_bound

