"""Constructive witnesses for the pairwise equivalences of stabilizer groups.

Every "choose any" step is made deterministic: blocks are consumed in
increasing id order, packing prefers the smallest sufficient block, chains
are ordered by point value, and the one free bit in the commutator solve is
an explicit anchor.  Constructions record exactly what was verified.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import NoCertificateError, PreconditionError, ProfileViolationError
from .partitions import (
    ELIGIBLE_SCAN_BLOCKS,
    BlockCursor,
    BoundedBy,
    Partition,
    a0,
    conjugator,
    stabilizer_membership,
    z_block_id,
)
from .perm import (
    FiniteSupportPermutation,
    LazyTable,
    Permutation,
    RulePermutation,
    WordPermutation,
    extend_while,
    metered,
    nat_to_z,
    parity,
    z_to_nat,
)


# --------------------------------------------------------------------------
# Packing one partition's blocks inside block images of another.


class _PackerPermutation(LazyTable):
    """Carries A-blocks onto a chosen half of B's blocks, lazily.

    Round k packs the k-th target block (the B-blocks of the chosen index
    parity) inside the image of a sufficiently large fresh A-block; one
    additional eligible A-block per round is released whole to the leftover
    pool, which is drained onto the points of the other half of B.  That
    keeps the leftover supply infinite, so the map is onto.
    """

    form = "packer"

    def __init__(self, A: Partition, B: Partition, side: int):
        super().__init__()
        self.A = A
        self.B = B
        self.side = side
        self._a = BlockCursor(A, self.form)
        self._b = BlockCursor(B, self.form)
        self._pending_targets: list = []
        self._fill_queue: list = []   # points of the other half, in order
        self._leftovers: list = []
        self.packing: list = []

    def _pull_b(self) -> None:
        b = self._b.pull()
        if self._b.index[b] % 2 == self.side:
            self._pending_targets.append(b)
        else:
            self._fill_queue.extend(self.B.block_members(b))

    def _next_target_block(self) -> int:
        while not self._pending_targets:
            self._pull_b()
        return self._pending_targets.pop(0)

    def _next_eligible_a(self, need: int) -> list:
        for _ in range(ELIGIBLE_SCAN_BLOCKS + 1):
            members = self.A.block_members(self._a.pull())
            if len(members) >= need:
                return members
            self._leftovers.extend(members)
        raise ProfileViolationError(
            f"{self.A.key}: no block of size >= {need} within "
            f"{ELIGIBLE_SCAN_BLOCKS + 1} blocks despite an unbounded-sizes profile")

    def _step(self) -> None:
        target = self._next_target_block()
        tgt_members = self.B.block_members(target)
        sacrifice = self._next_eligible_a(len(tgt_members))
        self._leftovers.extend(sacrifice)
        src_members = self._next_eligible_a(len(tgt_members))
        self._settle(zip(src_members, tgt_members))
        self._leftovers.extend(src_members[len(tgt_members):])
        while len(self._fill_queue) < len(self._leftovers):
            self._pull_b()
        self._settle((s, self._fill_queue.pop(0)) for s in self._leftovers)
        self._leftovers = []
        self.packing.append({"target": target,
                             "source": self.A.block_of(src_members[0])})

    def ensure_rounds(self, k: int) -> None:
        extend_while(self._lock, lambda: len(self.packing) < k, self._step)


def _require_label(A: Partition, label: str, name: str) -> None:
    if A.profile.label != label:
        raise ProfileViolationError(
            f"{A.key} is not in the {name} class: its profile is {A.profile.label}")


@dataclass
class PWitness:
    f: Permutation
    g: Permutation
    b1_blocks: List[int]
    b2_blocks: List[int]
    packing_f: list
    packing_g: list
    A_key: str
    B_key: str


def p_equiv_witness(A: Partition, B: Partition, depth: int) -> PWitness:
    """Two permutations whose block images absorb the two halves of B.

    B is split into its even-indexed blocks (B1) and odd-indexed blocks (B2);
    f packs every probed B1-block inside the image of one A-block and g does
    the same for B2.  Needs unbounded finite block sizes on both sides.
    """
    for part in (A, B):
        _require_label(part, "C_P", "unbounded-finite")
        part.sample_growing_blocks(4)  # a spot check of the declared growth
    f = _PackerPermutation(A, B, side=0)
    g = _PackerPermutation(A, B, side=1)
    f.ensure_rounds(depth)
    g.ensure_rounds(depth)
    it = B.iter_blocks()
    b_ids = [next(it) for _ in range(2 * depth)]
    return PWitness(f=f, g=g,
                    b1_blocks=b_ids[0::2], b2_blocks=b_ids[1::2],
                    packing_f=list(f.packing), packing_g=list(g.packing),
                    A_key=A.key, B_key=B.key)


class _HalfRestriction(Permutation):
    """Agrees with h on the blocks of one parity of B, fixes the rest.  A
    certified h's support bound bounds the block walk, which goes uncharged."""

    form = "half-restriction"

    def __init__(self, h: Permutation, B: Partition, side: int):
        super().__init__()
        self.h = h
        self.B = B
        self.side = side
        self.support_bound = h.support_bound
        self._blocks = BlockCursor(B, self.form, charged=h.support_bound is None)

    def _candidates(self):
        return self.h.moved_points()  # a point h fixes, this fixes

    def _mine(self, block_id: int) -> bool:
        index = self._blocks.index
        if block_id not in index:  # a reached block skips the closure
            self._blocks.pull_while(lambda: block_id not in index)
        return index[block_id] % 2 == self.side

    def _fwd(self, alpha):
        if self.support_bound is not None and alpha >= self.support_bound:
            return alpha  # h fixes every point from its support bound up
        return self.h._fwd(alpha) if self._mine(self.B.block_of(alpha)) else alpha

    def _bwd(self, alpha):
        if self.support_bound is not None and alpha >= self.support_bound:
            return alpha
        return self.h._bwd(alpha) if self._mine(self.B.block_of(alpha)) else alpha


def factor_through(h: Permutation, w: PWitness, B: Partition,
                   window: int = 1000) -> Tuple[Permutation, Permutation]:
    """Split h (certified to preserve B's blocks) as p . q where p moves only
    points of B1-blocks and q only points of B2-blocks."""
    membership = stabilizer_membership(h, B, window)
    if membership.answer != "yes":
        raise NoCertificateError(
            f"factor_through needs a block certificate for {B.key}: "
            f"{membership.basis}")
    return _HalfRestriction(h, B, side=0), _HalfRestriction(h, B, side=1)


# --------------------------------------------------------------------------
# The even-subgroup shift.


class EvenShiftWitness(Permutation):
    """Shifts the marked points by two: marked(i) -> marked(i+2), i over Z.

    The marked points at indices 4i..4i+3 are the four least elements of the
    i-th nonsingleton block; negative indices walk the singleton points in
    increasing order.  Unmarked points are fixed.  Conjugation by this map
    shifts the coordinates of the pairs {marked(2j), marked(2j+1)} by one.
    """

    form = "even-shift"

    def __init__(self, A: Partition):
        super().__init__()
        self.A = A
        self._blocks = BlockCursor(A, self.form, self._record)
        self._marked: list = []    # marked(i) for i >= 0
        self._singles: list = []   # marked(-k - 1)
        self._index_of: dict = {}  # marked point -> its index

    def _record(self, b: int) -> None:
        members = self.A.block_members(b)
        if len(members) == 1:
            self._singles.append(b)
            self._index_of[b] = -len(self._singles)
            return
        if len(members) < 4:
            raise ProfileViolationError(
                f"{self.A.key}: nonsingleton block {b} has fewer than 4 points")
        for pt in members[:4]:
            self._index_of[pt] = len(self._marked)
            self._marked.append(pt)

    def marked(self, i: int) -> int:
        pts, k = (self._marked, i) if i >= 0 else (self._singles, -i - 1)
        self._blocks.pull_while(lambda: len(pts) <= k)
        return pts[k]

    def _index(self, m: int) -> Optional[int]:
        b = self.A.block_of(m)  # once b is reached, m is marked iff recorded
        if not self._blocks.passed(b):  # a passed block skips the closure
            self._blocks.pull_while(lambda: not self._blocks.passed(b))
        return self._index_of.get(m)

    def _fwd(self, alpha):
        i = self._index(alpha)
        return alpha if i is None else self.marked(i + 2)

    def _bwd(self, alpha):
        i = self._index(alpha)
        return alpha if i is None else self.marked(i - 2)


def even_shift_witness(A: Partition) -> EvenShiftWitness:
    return EvenShiftWitness(A)


# --------------------------------------------------------------------------
# Bounded-block-size witnesses: chains, alternating edge colors, factorization.


class _EdgeColoring:
    """Chain each block in increasing point order; color edges alternately.

    The terminal edge color is forced to alternate red, green, red, ... over
    the nonsingleton blocks in id order, so both terminal colors occur
    infinitely often whatever the block sizes do.
    """

    def __init__(self, A: Partition):
        self.A = A
        self._blocks = BlockCursor(A, "coloring", self._record)
        self._rank = 0
        self._edges: dict = {}

    def _record(self, b: int) -> None:
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

    def edges_of(self, block_id: int) -> list:
        if block_id not in self._edges and self.A.block_of(block_id) != block_id:
            raise PreconditionError(f"{block_id} is not a block id of {self.A.key}")
        self._blocks.pull_while(lambda: block_id not in self._edges)
        return self._edges[block_id]

    def matching_partition(self, color: str) -> Partition:
        def pair_of(m: int):
            for lo, hi, c in self.edges_of(self.A.block_of(m)):
                if c == color and m in (lo, hi):
                    return lo, hi
            return None

        def block_of(m: int) -> int:
            pair = pair_of(m)
            return m if pair is None else pair[0]

        def members(b: int) -> list:
            pair = pair_of(b)
            if pair is None or pair[0] != b:
                return [b]
            return [pair[0], pair[1]]

        return Partition(f"{color}@{self.A.key}", block_of, members,
                         BoundedBy(2, "infinite"))


@dataclass
class QWitness:
    f: Permutation
    g: Permutation
    red: Partition
    green: Partition
    coloring: _EdgeColoring
    A: Partition
    bound: int

    def factorize(self, h: Permutation, window: int = 1000):
        return _q_factorize(self, h, window)


def q_equiv_witness(A: Partition, depth: int = 8) -> QWitness:
    """Chain coloring for a bounded partition with infinitely many pairs.

    Red edges and green edges each form partial matchings isomorphic to the
    canonical pairs-and-singletons layout; the returned conjugators carry that
    layout onto each matching, and ``factorize`` writes any block permutation
    as a word of single-edge transpositions, each a member of one of the two
    conjugated stabilizers.
    """
    _require_label(A, "C_Q", "bounded")
    A.sample_bounded_blocks(4)  # a spot check of the declared bound
    coloring = _EdgeColoring(A)
    red = coloring.matching_partition("red")
    green = coloring.matching_partition("green")
    f = conjugator(a0(), red, depth=depth)
    g = conjugator(a0(), green, depth=depth)
    return QWitness(f=f, g=g, red=red, green=green, coloring=coloring,
                    A=A, bound=A.profile.n)


def _adjacent_word(members: List[int], images: List[int]) -> List[int]:
    """Edge positions (1-based chain edges) realizing members -> images as a
    left-to-right product of adjacent transpositions; bubble-sort length."""
    m = len(members)
    pos_image = [members.index(x) for x in images]
    # pos_image[i] = final position of the point starting at position i
    arr = list(pos_image)
    swaps: List[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(m - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append(i)
                changed = True
    assert len(swaps) <= m * (m - 1) // 2
    return swaps


def _q_factorize(w: QWitness, h: Permutation, window: int):
    """Write h as single-edge factors over the blocks meeting the window.

    Returns (factors, product_word) where factors is a list of
    (transposition, color) pairs whose left-to-right product agrees with h on
    every fully processed block.
    """
    factors: List[Tuple[FiniteSupportPermutation, str]] = []
    with metered():
        for b in w.A.blocks_within(window):
            members = w.A.block_members(b)
            if len(members) < 2:
                if h._fwd(members[0]) != members[0]:
                    raise NoCertificateError(
                        f"h moves the singleton block {b}")
                continue
            images = [h._fwd(x) for x in members]
            if sorted(images) != members:
                raise NoCertificateError(f"h does not preserve block {b}")
            if images == list(members):
                continue
            edges = w.coloring.edges_of(b)
            for pos in _adjacent_word(members, images):
                lo, hi, color = edges[pos]
                factors.append((FiniteSupportPermutation({lo: hi, hi: lo}), color))
    product = WordPermutation([f for f, _ in factors])
    return factors, product


# --------------------------------------------------------------------------
# The two-block commutator solve.
#
# Two-point blocks {3k, 3k+1} are indexed by the integers through k; the
# points 3k+2 lie outside every block.


def _bit_blocks(bit: Callable[[int], int]) -> RulePermutation:
    """Transposes the integer-indexed two-point block i exactly when bit(i)."""

    def swap(alpha):
        b = alpha % 3
        if b == 2 or not bit(nat_to_z(alpha // 3)):
            return alpha
        return alpha + 1 if b == 0 else alpha - 1

    return RulePermutation("bit-blocks", swap, swap)


def _block_shift() -> RulePermutation:
    """Sends block i to block i+1 in index order, fixing the out points."""

    def shift(by):
        return lambda alpha: alpha if alpha % 3 == 2 else \
            3 * z_to_nat(nat_to_z(alpha // 3) + by) + alpha % 3

    return RulePermutation("block-shift", shift(1), shift(-1))


@dataclass
class CommutatorSolution:
    f_bits: Dict[int, int]
    f: Permutation
    h: Permutation
    commutator: Permutation
    lo: int
    hi: int
    anchor: int


def commutator_solve(target: Dict[int, int], anchor: int = 0) -> CommutatorSolution:
    """Choose which two-point blocks f transposes so that the commutator
    h^-1 f^-1 h f (h the block shift) realizes the target pattern.

    The commutator acts on block i exactly when f acts on exactly one of the
    blocks i-1 and i, so the activation bits satisfy c_i = f_{i-1} xor f_i
    and accumulate from the anchor, the value of f just left of the target
    range.  The two solutions differ by a global complement; the anchor
    selects one.  Since h fixes every point outside the blocks, so does the
    commutator.
    """
    if not target:
        raise PreconditionError("empty target pattern")
    lo, hi = min(target), max(target)
    if set(target) != set(range(lo, hi + 1)):
        raise PreconditionError("target indices must form a contiguous range")
    bits: Dict[int, int] = {}
    prev = anchor & 1
    for i in range(lo, hi + 1):
        prev = prev ^ (target[i] & 1)
        bits[i] = prev

    def bit(i: int) -> int:
        if i < lo:
            return anchor & 1
        if i > hi:
            return bits[hi]
        return bits[i]

    f = _bit_blocks(bit)
    h = _block_shift()
    comm = WordPermutation([h.inverse(), f.inverse(), h, f])
    return CommutatorSolution(f_bits=bits, f=f, h=h, commutator=comm,
                              lo=lo, hi=hi, anchor=anchor & 1)


def commutator_action_on_block(sol: CommutatorSolution, i: int) -> int:
    """1 when the realized commutator transposes block i, 0 when it fixes it."""
    base = z_block_id(i)
    img = sol.commutator.forward(base)
    if img == base:
        return 0
    if img == base + 1:
        return 1
    raise AssertionError(f"commutator left block {i}: {base} -> {img}")


# --------------------------------------------------------------------------
# Finite-support machinery: three-cycles and the finite classes.


def three_cycle_extract(g: Permutation, s: Permutation) -> FiniteSupportPermutation:
    """The commutator s^-1 g^-1 s g, verified to be a three-cycle.

    Requires the supports to meet in exactly one point.
    """
    supp_g = set(g.moved_points())
    supp_s = set(s.moved_points())
    meet = supp_g & supp_s
    if len(meet) != 1:
        raise PreconditionError(
            f"supports must meet in exactly one point, got {sorted(meet)}")
    comm = WordPermutation([s.inverse(), g.inverse(), s, g])
    with metered():
        result = FiniteSupportPermutation(
            {a: comm._fwd(a) for a in comm.moved_points()})
    cycs = result.cycles()
    if len(cycs) != 1 or len(cycs[0]) != 3:
        raise AssertionError(f"commutator is not a three-cycle: cycles {cycs}")
    return result


def sfinite_class(gens: Sequence[Permutation]) -> str:
    """Which finite class the generated group falls in: "trivial",
    "even-finite" (nontrivial, all elements even), or "odd-finite".

    Generators must carry finite-support certificates.  The even
    permutations form a subgroup, so the group is all-even iff every
    generator is even, and trivial iff no generator moves a point; nothing
    is enumerated.
    """
    for g in gens:
        if g.support_bound is None:
            raise PreconditionError("generators must be certified finite-support")
    points = {a for g in gens for a in g.moved_points()}
    if not points:
        return "trivial"
    for g in gens:
        if any(g.forward(a) not in points for a in points):
            raise PreconditionError(
                "generator moves a support point outside the union")
    return "even-finite" if all(parity(g) == "even" for g in gens) else "odd-finite"
