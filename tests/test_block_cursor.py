"""The block cursor and the lazy walkers built on it, against the walkers it
replaced.

The oracles below are the set-based partition scans and the four walkers as
they stood when each kept its own generator, high-water mark and scan cap.
Over every built-in partition and random explicit ones, the cursor's
walkers must give the same ids, the same images in both directions and in
any evaluation order, and the same exception types.  The other tests hold
the cursor's own promises: walkers shared by two threads answer as one
thread does (as do the two factors of a local decomposition, over their
shared breakpoints, a branch limit, a tree element, the rule witness's
far-pair walk and a refined metric's neighbor cache), every walk stops at
a small step budget with its own form, and a settled point pulls no block.
"""
import itertools
import random
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import symkit.metrics as metrics
import symkit.partitions as parts
from symkit.errors import (
    EvaluationBudgetError,
    NotIsomorphicError,
    PreconditionError,
    ProfileViolationError,
    SymkitError,
)
from symkit.partitions import (
    MATCH_SCAN_BLOCKS,
    BlockCursor,
    BoundedBy,
    ConjugatorPermutation,
    UnboundedFinite,
    conjugator,
)
from symkit.localdecomp import decompose_local
from symkit.metrics import StandardOmega, parse_metric, unbounded_witness_rule
from symkit.perm import (
    FiniteSupportPermutation,
    Permutation,
    _Flip,
    evaluation_budget,
    rule,
    word,
)
from symkit.trees import PartitionStabilizerOracle, branch_limit, build_tree
from symkit.witnesses import (
    EvenShiftWitness,
    _EdgeColoring,
    _HalfRestriction,
    _PackerPermutation,
    factor_through,
    p_equiv_witness,
)


# --------------------------------------------------------------------------
# Oracles: the set-based scans.


def old_iter_blocks(A):
    a = 0
    emitted = set()
    while True:
        b = A._block_of(a)
        if b not in emitted:
            emitted.add(b)
            yield b
        a += 1


def old_blocks_within(A, window):
    seen = []
    found = set()
    for a in range(window):
        b = A._block_of(a)
        if b not in found:
            found.add(b)
            seen.append(b)
    return sorted(seen)


def old_sample_growing_blocks(A, count, scan_cap=10**6):
    out = []
    best = 0
    a = 0
    seen = set()
    while len(out) < count and a < scan_cap:
        b = A._block_of(a)
        if b not in seen:
            seen.add(b)
            s = len(A._block_members(b))
            if s > best:
                best = s
                out.append(b)
        a += 1
    if len(out) < count:
        raise ProfileViolationError("too few growing blocks")
    return out


def old_sample_nonsingleton_blocks(A, count, start=0, scan_cap=10**6):
    out = []
    a = start
    seen = set()
    while len(out) < count and a < start + scan_cap:
        b = A._block_of(a)
        if b not in seen:
            seen.add(b)
            if len(A._block_members(b)) > 1:
                out.append(b)
        a += 1
    if len(out) < count:
        raise ProfileViolationError("too few nonsingleton blocks")
    return out


# --------------------------------------------------------------------------
# Oracles: the walkers with their own cursors and caps.


class OldConjugator(Permutation):
    def __init__(self, A, B, scan_cap=20_000):
        super().__init__()
        self.A = A
        self.B = B
        self.scan_cap = scan_cap
        self._a_iter = old_iter_blocks(A)
        self._b_iter = old_iter_blocks(B)
        self._b_queues = {}
        self._match = {}
        self._rmatch = {}
        self._a_scanned = 0
        self._b_scanned = 0

    def _pull_b(self):
        b = next(self._b_iter)
        self._b_scanned += 1
        size = len(self.B.block_members(b))
        self._b_queues.setdefault(size, []).append(b)

    def _advance_a(self):
        a = next(self._a_iter)
        self._a_scanned += 1
        size = len(self.A.block_members(a))
        queue = self._b_queues.get(size, [])
        while not queue:
            if self._b_scanned >= self.scan_cap:
                raise NotIsomorphicError("B side ran out")
            self._pull_b()
            queue = self._b_queues.get(size, [])
        b = queue.pop(0)
        self._match[a] = b
        self._rmatch[b] = a

    def ensure_blocks(self, count):
        while len(self._match) < count:
            self._advance_a()

    def _ensure_a_block(self, a_block):
        while a_block not in self._match:
            if self._a_scanned >= self.scan_cap:
                raise NotIsomorphicError("A-block not reached")
            self._advance_a()

    def _ensure_b_block(self, b_block):
        while b_block not in self._rmatch:
            if self._a_scanned >= self.scan_cap:
                raise NotIsomorphicError("B-block never matched")
            self._advance_a()

    def _fwd(self, alpha):
        a_block = self.A.block_of(alpha)
        self._ensure_a_block(a_block)
        src = self.A.block_members(a_block)
        dst = self.B.block_members(self._match[a_block])
        return dst[src.index(alpha)]

    def _bwd(self, alpha):
        b_block = self.B.block_of(alpha)
        self._ensure_b_block(b_block)
        dst = self.B.block_members(b_block)
        src = self.A.block_members(self._rmatch[b_block])
        return src[dst.index(alpha)]

    def inverse(self):
        return OldConjugator(self.B, self.A, self.scan_cap)


def old_conjugator(A, B, depth):
    f = OldConjugator(A, B)
    f.ensure_blocks(depth)
    OldConjugator(B, A).ensure_blocks(depth)
    return f


class OldPacker(Permutation):
    def __init__(self, A, B, side, round_cap=50_000):
        super().__init__()
        self.A = A
        self.B = B
        self.side = side
        self.round_cap = round_cap
        self._fmap = {}
        self._bmap = {}
        self._a_blocks = old_iter_blocks(A)
        self._b_blocks = old_iter_blocks(B)
        self._b_index = 0
        self._pending_targets = []
        self._fill_queue = []
        self._leftovers = []
        self._rounds = 0
        self.packing = []

    def _pull_b(self):
        b = next(self._b_blocks)
        if self._b_index % 2 == self.side:
            self._pending_targets.append(b)
        else:
            self._fill_queue.extend(self.B.block_members(b))
        self._b_index += 1

    def _next_target_block(self):
        while not self._pending_targets:
            self._pull_b()
        return self._pending_targets.pop(0)

    def _next_eligible_a(self, need):
        scanned = 0
        while True:
            a = next(self._a_blocks)
            members = self.A.block_members(a)
            if len(members) >= need:
                return members
            self._leftovers.extend(members)
            scanned += 1
            if scanned > self.round_cap:
                raise ProfileViolationError("no eligible block")

    def _round(self):
        self._rounds += 1
        if self._rounds > self.round_cap:
            raise EvaluationBudgetError("packer round cap exceeded")
        target = self._next_target_block()
        tgt_members = self.B.block_members(target)
        sacrifice = self._next_eligible_a(len(tgt_members))
        self._leftovers.extend(sacrifice)
        src_members = self._next_eligible_a(len(tgt_members))
        for s, t in zip(src_members, tgt_members):
            self._fmap[s] = t
            self._bmap[t] = s
        self._leftovers.extend(src_members[len(tgt_members):])
        while len(self._fill_queue) < len(self._leftovers):
            self._pull_b()
        for s in self._leftovers:
            t = self._fill_queue.pop(0)
            self._fmap[s] = t
            self._bmap[t] = s
        self._leftovers = []
        self.packing.append({"target": target,
                             "source": self.A.block_of(src_members[0])})

    def ensure_rounds(self, k):
        while self._rounds < k:
            self._round()

    def _fwd(self, alpha):
        while alpha not in self._fmap:
            self._round()
        return self._fmap[alpha]

    def _bwd(self, alpha):
        while alpha not in self._bmap:
            self._round()
        return self._bmap[alpha]

    def inverse(self):
        return _Flip(self)


class OldEvenShift(Permutation):
    def __init__(self, A, scan_cap=200_000):
        super().__init__()
        self.A = A
        self.scan_cap = scan_cap
        self._nonsingleton_ids = []
        self._singleton_pts = []
        self._iter = old_iter_blocks(A)
        self._max_block_seen = -1
        self._index_of = {}

    def _extend(self):
        b = next(self._iter)
        self._max_block_seen = max(self._max_block_seen, b)
        members = self.A.block_members(b)
        if len(members) == 1:
            k = len(self._singleton_pts)
            self._singleton_pts.append(members[0])
            self._index_of[members[0]] = -(k + 1)
        else:
            if len(members) < 4:
                raise ProfileViolationError("nonsingleton block below 4 points")
            i = len(self._nonsingleton_ids)
            self._nonsingleton_ids.append(b)
            for j, pt in enumerate(members[:4]):
                self._index_of[pt] = 4 * i + j

    def marked(self, i):
        if i >= 0:
            block_idx, off = divmod(i, 4)
            while len(self._nonsingleton_ids) <= block_idx:
                self._extend()
            return self.A.block_members(self._nonsingleton_ids[block_idx])[off]
        k = -i - 1
        while len(self._singleton_pts) <= k:
            self._extend()
        return self._singleton_pts[k]

    def _index(self, m):
        target = self.A.block_of(m)
        guard = 0
        while self._max_block_seen < target:
            self._extend()
            guard += 1
            if guard > self.scan_cap:
                raise EvaluationBudgetError("even-shift scan cap exceeded")
        return self._index_of.get(m)

    def _fwd(self, alpha):
        i = self._index(alpha)
        return alpha if i is None else self.marked(i + 2)

    def _bwd(self, alpha):
        i = self._index(alpha)
        return alpha if i is None else self.marked(i - 2)

    def inverse(self):
        return _Flip(self)


class OldEdgeColoring:
    def __init__(self, A, scan_cap=500_000):
        self.A = A
        self.scan_cap = scan_cap
        self._cursor = old_iter_blocks(A)
        self._max_seen = -1
        self._rank = 0
        self._edges = {}

    def _extend(self):
        b = next(self._cursor)
        self._max_seen = max(self._max_seen, b)
        members = self.A.block_members(b)
        if len(members) < 2:
            self._edges[b] = []
            return
        desired = "red" if self._rank % 2 == 0 else "green"
        self._rank += 1
        m = len(members)
        start = desired if (m - 2) % 2 == 0 else (
            "green" if desired == "red" else "red")
        colors = ("red", "green")
        c = colors.index(start)
        edges = []
        for i in range(1, m):
            edges.append((members[i - 1], members[i], colors[c]))
            c ^= 1
        self._edges[b] = edges

    def edges_of(self, block_id):
        guard = 0
        while block_id not in self._edges:
            if self._max_seen >= block_id:
                raise PreconditionError("not a block id")
            self._extend()
            guard += 1
            if guard > self.scan_cap:
                raise EvaluationBudgetError("coloring scan cap exceeded")
        return self._edges[block_id]


# --------------------------------------------------------------------------
# Partitions.


BUILTINS = sorted(parts.BUILTIN_PARTITIONS)


@st.composite
def explicit_partitions(draw, span=80, intervals=False, sizes=(1, 2, 3, 4)):
    """Blocks over [0, span), as intervals or as random sets, rest singletons."""
    points = list(range(span))
    if not intervals:
        points = draw(st.permutations(points))
    blocks = []
    while points:
        size = draw(st.sampled_from(sizes))
        blocks.append(points[:size])
        points = points[size:]
    profile = draw(st.sampled_from([BoundedBy(max(sizes), "infinite"),
                                    UnboundedFinite()]))
    return parts.explicit(blocks, profile)


partitions = st.sampled_from(BUILTINS).map(parts.parse_partition) | \
    explicit_partitions()


def _order(points, how, rng):
    points = sorted(set(points))
    if how == "descending":
        points.reverse()
    elif how == "shuffled":
        rng.shuffle(points)
    return points


def _images(make, points):
    """Forward then backward images of a fresh permutation and of its
    inverse, up to the first error, whose type ends the record."""
    out = []
    try:
        g = make()
        for p in (g, g.inverse()):
            out += [p.forward(a) for a in points]
            out += [p.backward(a) for a in points]
    except SymkitError as exc:
        out.append(type(exc).__name__)
    return out


orders = st.sampled_from(["ascending", "descending", "shuffled"])


# --------------------------------------------------------------------------
# Partition scans.


@settings(max_examples=150, deadline=None)
@given(partitions, st.integers(0, 300), st.integers(0, 40))
def test_block_scans_match_set_based_scans(A, window, count):
    assert A.blocks_within(window) == old_blocks_within(A, window)
    assert list(itertools.islice(A.iter_blocks(), count)) == \
        list(itertools.islice(old_iter_blocks(A), count))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SymkitError as exc:
        return type(exc).__name__


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["intervals-growing", "spread"]) | st.just(None),
       explicit_partitions(intervals=True, sizes=(1, 2, 3, 5, 8)),
       st.integers(0, 6))
def test_growing_samples_match(key, explicit, count):
    A = parts.parse_partition(key) if key else explicit
    if key is None:  # past its listed blocks a partition has only singletons
        sizes = [len(A.block_members(b)) for b in A.blocks_within(200)]
        records = [s for i, s in enumerate(sizes) if s > max(sizes[:i], default=0)]
        assume(count <= len(records))
    assert _outcome(A.sample_growing_blocks, count) == \
        _outcome(old_sample_growing_blocks, A, count)


def test_growing_samples_raise_on_bounded_sizes():
    # the old scan stopped at its own point cap; the walk stops at the meter
    A = parts.pairs()
    assert _outcome(old_sample_growing_blocks, A, 2) == "ProfileViolationError"
    with pytest.raises(EvaluationBudgetError) as info:
        A.sample_growing_blocks(2)
    assert info.value.form == "blocks"


@settings(max_examples=150, deadline=None)
@given(partitions, st.integers(0, 6), st.integers(0, 60))
def test_nonsingleton_samples_match(A, count, start):
    """From a block id on, the samples are the blocks with ids from there on.
    The old scan also reported a block that began before start and met a
    point past it; where it found none, the two agree."""
    assume(A.key not in ("evens-block", "singletons") and A.block_of(start) == start)
    available = [b for b in A.blocks_within(start + 200)
                 if b >= start and len(A.block_members(b)) > 1]
    assume(count <= len(available))
    new = A.sample_nonsingleton_blocks(count, start)
    assert new == available[:count]
    old = old_sample_nonsingleton_blocks(A, count, start)
    if all(b >= start for b in old):
        assert new == old


# --------------------------------------------------------------------------
# Walkers.


CONJUGATOR_PAIRS = [
    ("pairs", "pairs"), ("a0", "a0"), ("a0", "z-pair-blocks"),
    ("z-pair-blocks", "a0"), ("intervals-growing", "intervals-growing"),
    ("spread", "spread"), ("singletons", "singletons"),
    ("pairs", "a0"), ("a0", "pairs-shifted"), ("pairs-shifted", "pairs"),
    ("a0", "singletons"), ("z-pair-blocks", "pairs"),
]


@st.composite
def conjugator_pairs(draw):
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(CONJUGATOR_PAIRS))
        return parts.parse_partition(a), parts.parse_partition(b)
    # the same block sizes in two layouts, or against the singletons
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=20))
    layouts = []
    for shuffled in (False, True):
        order = draw(st.permutations(sizes)) if shuffled else sizes
        pts = draw(st.permutations(range(sum(sizes))))
        blocks, pos = [], 0
        for size in order:
            blocks.append(pts[pos:pos + size])
            pos += size
        layouts.append(parts.explicit(blocks, BoundedBy(5, "infinite")))
    if draw(st.booleans()):
        layouts[1] = parts.singletons()
    return tuple(layouts)


@settings(max_examples=120, deadline=None)
@given(conjugator_pairs(), st.integers(0, 8), st.integers(1, 120), orders,
       st.randoms(use_true_random=False))
def test_conjugators_match(AB, depth, window, how, rng):
    A, B = AB
    points = _order(range(window), how, rng)
    assert _images(lambda: conjugator(A, B, depth), points) == \
        _images(lambda: old_conjugator(A, B, depth), points)
    assert _images(lambda: ConjugatorPermutation(A, B), points) == \
        _images(lambda: OldConjugator(A, B), points)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["intervals-growing", "spread"]) | st.just(None),
       st.sampled_from(["intervals-growing", "spread"]) | st.just(None),
       explicit_partitions(span=60, sizes=(1, 2, 4, 7)), st.integers(0, 1),
       st.integers(1, 150), orders, st.randoms(use_true_random=False))
def test_packers_match(a_key, b_key, explicit, side, window, how, rng):
    """A listed partition as A runs out of big blocks: both raise."""
    A = parts.parse_partition(a_key) if a_key else explicit
    B = parts.parse_partition(b_key) if b_key else explicit
    points = _order(range(window), how, rng)
    assert _images(lambda: _PackerPermutation(A, B, side), points) == \
        _images(lambda: OldPacker(A, B, side), points)


@st.composite
def marked_layouts(draw, span=600):
    """Interval blocks of 4 to 6 points over [0, span), each after up to two
    singletons, so marked points run on well past any window below."""
    blocks, pos = [], 0
    while pos < span:
        pos += draw(st.integers(0, 2))
        size = draw(st.integers(4, 6))
        blocks.append(list(range(pos, pos + size)))
        pos += size
    return parts.explicit(blocks, UnboundedFinite())


even_shift_partitions = st.sampled_from(
    [k for k in BUILTINS if k != "singletons"]).map(parts.parse_partition) | \
    marked_layouts()


@settings(max_examples=100, deadline=None)
@given(even_shift_partitions, st.integers(1, 150), orders,
       st.randoms(use_true_random=False))
def test_even_shifts_match(A, window, how, rng):
    """The old walker loops forever once it runs out of marked points, so
    listed partitions reach well past the window."""
    points = _order(range(window), how, rng)
    assert _images(lambda: EvenShiftWitness(A), points) == \
        _images(lambda: OldEvenShift(A), points)
    marks = range(-window // 10, window // 10)

    def marked(w):
        try:
            return [w.marked(i) for i in marks]
        except SymkitError as exc:
            return type(exc).__name__
    assert marked(EvenShiftWitness(A)) == marked(OldEvenShift(A))


@settings(max_examples=120, deadline=None)
@given(partitions, st.lists(st.integers(0, 150), max_size=40))
def test_edge_colorings_match(A, ids):
    """Up to the first error, as in ``_images``.  A non-block id is refused
    without a walk, so an error the old walker met on its way there (the
    infinite block of evens-block) does not show."""
    def edges(coloring, ids):
        out = []
        for b in ids:
            out.append(_outcome(coloring.edges_of, b))
            if isinstance(out[-1], str):
                break
        return out
    block_ids = [b for b in ids if A.block_of(b) == b]
    assert edges(_EdgeColoring(A), block_ids) == edges(OldEdgeColoring(A), block_ids)
    old, new = edges(OldEdgeColoring(A), ids), edges(_EdgeColoring(A), ids)
    assert all(e == "PreconditionError" for b, e in zip(ids, new)
               if b not in block_ids)
    if "ProfileViolationError" not in old:
        assert new == old


ISOMORPHIC = [("pairs", "pairs"), ("a0", "z-pair-blocks"),
              ("z-pair-blocks", "a0"), ("intervals-growing", "intervals-growing"),
              ("spread", "spread"), ("singletons", "singletons")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ISOMORPHIC), st.integers(0, 8), st.integers(1, 200),
       orders, st.randoms(use_true_random=False))
def test_conjugator_inverse_reads_the_matching_backwards(keys, depth, window,
                                                         how, rng):
    A, B = (parts.parse_partition(k) for k in keys)
    inverse = conjugator(A, B, depth).inverse()
    fresh = ConjugatorPermutation(B, A)
    points = _order(range(window), how, rng)
    assert [inverse.forward(a) for a in points] == [fresh.forward(a) for a in points]
    assert [inverse.backward(a) for a in points] == \
        [fresh.backward(a) for a in points]


def test_a_block_whose_record_raises_stays_next():
    """The even block of evens-block has no member list: every later walk
    meets it again, instead of running on past it to the budget."""
    w = EvenShiftWitness(parts.evens_block())
    for a in (1, 3, 0):
        with pytest.raises(ProfileViolationError):
            w.forward(a)
    assert w._blocks.ids == []


def test_conjugator_gives_up_at_the_declared_cap():
    f = ConjugatorPermutation(parts.pairs(), parts.a0())
    with pytest.raises(NotIsomorphicError):
        f.backward(2)  # a0's singleton {2} has no partner in pairs
    assert len(f._b.ids) == MATCH_SCAN_BLOCKS  # a0 runs out of pairs first


# --------------------------------------------------------------------------
# Threads.


def _uncertified_half_restriction():
    h = word(FiniteSupportPermutation({0: 1, 1: 0, 4: 5, 5: 4}), rule("swap-pairs"))
    return _HalfRestriction(h, parts.pairs(), 0)


def _local_factors(f):
    """Both factors of a local decomposition, in both directions: for an
    uncertified f they share one lazy breakpoint sequence, for a certified
    one they are settled when built."""
    p, q = decompose_local(f, 8)
    return lambda a: (p.forward(a), q.forward(a), p.backward(a), q.backward(a))


def _far_pairs():
    return unbounded_witness_rule(StandardOmega(), lambda i: i)


def _conjugator():
    """One conjugator's point tables, grown from both directions."""
    f = conjugator(parts.a0(), parts.z_pair_blocks(), 8)
    return lambda a: (f.forward(a), f.backward(a))


def _tree_element():
    """One element's two memos, and its ancestors', filled from both sides."""
    g = build_tree(PartitionStabilizerOracle(parts.a0()), "binary", 6).perm(
        (1, 0) * 3)
    return lambda a: (g.forward(a), g.backward(a))


THREAD_CASES = {  # a point's evaluation and the window both threads evaluate
    "half-restriction": (lambda: _uncertified_half_restriction().forward, 20_000),
    # spread's block_of costs O(sqrt a), so a shorter window
    "even-shift": (lambda: EvenShiftWitness(parts.spread()).forward, 5_000),
    "packer": (lambda: _PackerPermutation(parts.intervals_growing(),
                                          parts.intervals_growing(), 0).forward,
               20_000),
    "local-factors": (lambda: _local_factors(
        word(rule("swap-pairs"), rule("shift-z"))), 3_000),
    "local-factors-certified": (lambda: _local_factors(
        word(FiniteSupportPermutation({0: 7, 7: 3, 3: 0}), rule("identity"))), 3_000),
    # a branch limit's memos, over a constant tail that repeats its last term
    "branch-limit": (lambda: branch_limit(build_tree(PartitionStabilizerOracle(
        parts.a0()), "binary", 6), (1, 0) * 3).forward, 1_500),
    "tree-element": (_tree_element, 1_500),
    "unbounded-witness": (lambda: _far_pairs().forward, 20_000),
    "conjugator": (_conjugator, 5_000),
}


@pytest.mark.parametrize("name", sorted(THREAD_CASES))
def test_walkers_shared_by_two_threads_answer_as_one(name):
    make, window = THREAD_CASES[name]
    points = range(window)
    alone = make()
    expected = [alone(a) for a in points]
    for _ in range(20):
        evaluate = make()
        results, errors = [], []

        def run():
            try:
                results.append([evaluate(a) for a in points])
            except Exception as exc:  # any error, a race's included, fails the case
                errors.append(exc)
        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert not errors
        assert results == [expected, expected]


def test_local_factor_paired_on_request_by_four_threads():
    """Four threads pair one uncertified local factor's blocks in one
    shuffled order, so they meet in the same blocks, with a short switch
    interval: a block's crossers are in the table before the block is marked
    paired or the frontier passes it, so every thread reads the one-thread
    images."""
    f = word(rule("block-rotate", size=8), rule("shift-z"))
    points = random.Random(23).sample(range(2_000), 2_000)
    alone, _ = decompose_local(f, 8)
    expected = {a: alone.forward(a) for a in points}
    orders = [points] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g, _ = decompose_local(f, 8)
            results, errors = [], []

            def run(order):
                try:
                    results.append({a: g.forward(a) for a in order})
                except Exception as exc:
                    errors.append(exc)
            threads = [threading.Thread(target=run, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert not errors
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_refined_metric_cache_shared_by_four_threads(monkeypatch):
    """Threads whose searches evict from one small neighbor cache while
    inserting into it see no error and the one-thread distances."""
    monkeypatch.setattr(metrics, "NEIGHBOR_CACHE_CAP", 4)
    spec = "refine(standard-omega;U=[rule:swap-pairs])"
    queries = [(a, a + 3) for a in range(300)]
    alone = parse_metric(spec)
    expected = [alone.dist_budgeted(a, b, 4) for a, b in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            d = parse_metric(spec)
            results, errors = [], []

            def run():
                try:
                    results.append([d.dist_budgeted(a, b, 4) for a, b in queries])
                except Exception as exc:
                    errors.append(exc)
            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert not errors
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------
# Budgets.


FAR = 10**6
BUDGET_CASES = {
    "packer": lambda: _PackerPermutation(parts.intervals_growing(),
                                         parts.intervals_growing(), 0),
    "conjugator": lambda: conjugator(parts.pairs(), parts.pairs(), 6),
    "even-shift": lambda: EvenShiftWitness(parts.spread()),
    "half-restriction": _uncertified_half_restriction,
    "unbounded-witness": _far_pairs,
}


@pytest.mark.parametrize("form", sorted(BUDGET_CASES))
def test_far_point_stops_at_the_budget_with_the_walkers_form(form):
    g = BUDGET_CASES[form]()
    g.forward(0)
    with evaluation_budget(50):
        with pytest.raises(EvaluationBudgetError) as err:
            g.forward(FAR)
    assert (err.value.limit, err.value.form) == (50, form)
    assert err.value.spent == 51


def test_factor_through_a_far_supported_h_walks_on_demand():
    """A certified h's half restrictions walk B only as far as a lookup
    asks: a far support costs nothing until a point near it is asked for."""
    B = parts.intervals_growing()
    w = p_equiv_witness(parts.intervals_growing(), B, depth=2)
    lo, hi = B.block_members(B.block_of(3 * FAR))[:2]
    h = FiniteSupportPermutation({lo: hi, hi: lo})
    with evaluation_budget():  # the default budget, for all of it
        p, q = factor_through(h, w, B)
        halves = (p, q, p.inverse(), q.inverse())
        assert [g.forward(a) for g in halves for a in range(3)] == [0, 1, 2] * 4
    assert not p._blocks.passed(3)


def test_a_walk_charges_one_step_per_point_tested():
    g = EvenShiftWitness(parts.spread())
    with evaluation_budget(10**9) as m:
        g.forward(300)
    assert m.spent == g._blocks._next  # the points below it, once each


# --------------------------------------------------------------------------
# Count guard: a second pass over settled points pulls no block.


def test_settled_points_pull_no_block(monkeypatch):
    B = parts.intervals_growing()
    w = p_equiv_witness(parts.intervals_growing(), B, depth=6)
    rng = random.Random(23)
    mapping = {}
    for b in itertools.islice(B.iter_blocks(), 6):
        members = B.block_members(b)
        images = members[:]
        rng.shuffle(images)
        mapping.update({x: y for x, y in zip(members, images) if x != y})
    h = word(FiniteSupportPermutation(mapping), rule("swap-pairs"),
             rule("swap-pairs"))  # uncertified
    p, q = factor_through(FiniteSupportPermutation(mapping), w, B, window=1000)
    walkers = [p, q, _HalfRestriction(h, B, 0),
               conjugator(parts.a0(), parts.z_pair_blocks(), 8),
               EvenShiftWitness(parts.spread())]
    points = range(1000)
    first = [[g.forward(a) for a in points] for g in walkers]
    pulls = []
    inner = BlockCursor.pull

    def counting(self):
        pulls.append(self.form)
        return inner(self)
    monkeypatch.setattr(BlockCursor, "pull", counting)
    assert [[g.forward(a) for a in points] for g in walkers] == first
    assert pulls == []
