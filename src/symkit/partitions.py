"""Computable partitions of the naturals into blocks.

A partition is an oracle pair (block_of, block_members) plus a declared size
profile.  Profiles are declared by the constructor and spot-verified, never
inferred: whether the block sizes are really unbounded, or whether infinitely
many blocks are nonsingletons, cannot be decided from finitely many probes,
so the library records exactly what was checked.
"""
from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from .errors import NotIsomorphicError, ParseError, ProfileViolationError
from .perm import Permutation, _charge, _Flip, metered, z_to_nat

# Scan caps whose exhaustion decides an answer; any other walk is bounded by
# the evaluation meter alone.
SAMPLE_SCAN_POINTS = 10**6     # profile samples: points scanned for evidence
ELIGIBLE_SCAN_BLOCKS = 50_000  # packer: blocks skipped for one big enough
MATCH_SCAN_BLOCKS = 20_000     # conjugator: blocks pulled on either side


@dataclass(frozen=True)
class BoundedBy:
    n: int
    nonsingletons: Union[int, str]  # a count, or "infinite"

    kind = "bounded"


@dataclass(frozen=True)
class UnboundedFinite:
    kind = "unbounded-finite"


@dataclass(frozen=True)
class HasInfiniteBlock:
    block: int

    kind = "infinite-block"


Profile = Union[BoundedBy, UnboundedFinite, HasInfiniteBlock]


class Partition:
    """Blocks are identified by their least element."""

    def __init__(self, key: str, block_of: Callable[[int], int],
                 block_members: Callable[[int], List[int]], profile: Profile):
        self.key = key
        self._block_of = block_of
        self._block_members = block_members
        self.profile = profile

    def block_of(self, alpha: int) -> int:
        return self._block_of(alpha)

    def block_members(self, block_id: int) -> List[int]:
        return self._block_members(block_id)

    def blocks_within(self, window: int) -> List[int]:
        """Ids of the blocks meeting [0, window), in increasing order."""
        block_of = self._block_of
        return [a for a in range(window) if block_of(a) == a]

    def free_points(self, block_id: int, gamma, n: int) -> List[int]:
        """The first ``n`` points of block ``block_id`` outside the set
        ``gamma``, found through block_of alone, so an infinite block needs
        no member list.  Each point tested charges one step, added to the
        meter once the scan ends: block_of charges nothing meanwhile."""
        block_of, out, m = self._block_of, [], 0
        with metered() as meter:
            stop = meter.limit - meter.spent  # the points the meter allows
            while len(out) < n:
                if m >= stop:
                    meter.spent += m
                    _charge("free-points")  # the budget is spent: raises
                if m not in gamma and block_of(m) == block_id:
                    out.append(m)
                m += 1
            meter.spent += m
        return out

    def iter_blocks(self):
        """All blocks in increasing id order (infinite iterator).  Each point
        tested charges one step under form ``blocks``, to the caller's meter
        or else to a fresh budget for each block."""
        a = -1
        while True:
            with metered():
                a = _next_block(self._block_of, a + 1, "blocks", _charge)
            yield a

    def spot_verify(self, window: int) -> None:
        """Check coverage, disjointness, and the declared profile on a window."""
        sizes_seen: dict = {}
        for a in range(window):
            b = self._block_of(a)
            members = self._block_members(b)
            if a not in members:
                raise ProfileViolationError(
                    f"{self.key}: point {a} missing from its block {b}")
            if members != sorted(set(members)):
                raise ProfileViolationError(
                    f"{self.key}: block {b} members not sorted/unique")
            if min(members) != b:
                raise ProfileViolationError(
                    f"{self.key}: block id {b} is not its least member")
            for m in members:
                if self._block_of(m) != b:
                    raise ProfileViolationError(
                        f"{self.key}: blocks overlap at point {m}")
            sizes_seen[b] = len(members)
        if isinstance(self.profile, BoundedBy):
            for b, s in sizes_seen.items():
                if s > self.profile.n:
                    raise ProfileViolationError(
                        f"{self.key}: block {b} has size {s} > declared bound "
                        f"{self.profile.n}")

    def sample_growing_blocks(self, count: int) -> List[int]:
        """Ids of blocks with strictly increasing sizes (UnboundedFinite evidence)."""
        out: List[int] = []
        best = 0
        for a in range(SAMPLE_SCAN_POINTS):
            if len(out) >= count:
                break
            if self._block_of(a) == a and (s := len(self._block_members(a))) > best:
                best = s
                out.append(a)
        if len(out) < count:
            raise ProfileViolationError(
                f"{self.key}: declared unbounded sizes but found only "
                f"{len(out)} growing blocks within {SAMPLE_SCAN_POINTS} points")
        return out

    def sample_nonsingleton_blocks(self, count: int, start: int = 0) -> List[int]:
        """Ids of the first ``count`` nonsingleton blocks from ``start`` on."""
        found = (a for a in range(start, start + SAMPLE_SCAN_POINTS)
                 if self._block_of(a) == a and len(self._block_members(a)) > 1)
        out = list(itertools.islice(found, count))
        if len(out) < count:
            raise ProfileViolationError(
                f"{self.key}: declared infinitely many nonsingletons but found "
                f"only {len(out)} past {start}")
        return out


def _next_block(block_of: Callable[[int], int], a: int, form: str,
                charge: Callable[[str], None]) -> int:
    """The least block id from point ``a`` on; each point tested calls
    ``charge(form)``."""
    charge(form)
    while block_of(a) != a:
        a += 1
        charge(form)
    return a


class BlockCursor:
    """One partition's blocks in increasing id order, pulled on demand.

    A block's id is its least member, so point ``a`` starts a block exactly
    when ``block_of(a) == a``, and block ``b`` is reached once the cursor
    has passed point ``b``.  Each point tested charges one step, with the
    owner's ``form``: one block of a growing partition spans many points.
    An owner whose walk has another declared bound builds it uncharged.
    A block is taken once the owner's ``record(id)``, if any, returns, so a
    block whose record raises stays next.  Pulls run under the owner's lock
    (:func:`extend_while`)."""

    __slots__ = ("_block_of", "form", "_charge", "_record", "ids", "index", "_next")

    def __init__(self, A: Partition, form: str,
                 record: Optional[Callable[[int], None]] = None, charged: bool = True):
        self._block_of = A._block_of
        self.form = form
        self._charge = _charge if charged else (lambda form: None)
        self._record = record
        self.ids: List[int] = []  # the blocks pulled, in id order
        self.index: dict = {}     # block id -> its position in ids
        self._next = 0            # the first point not yet tested

    def pull(self) -> int:
        """The next block's id."""
        a = _next_block(self._block_of, self._next, self.form, self._charge)
        if self._record is not None:
            self._record(a)
        self.ids.append(a)
        self.index[a] = len(self.ids) - 1
        self._next = a + 1
        return a

    def passed(self, point: int) -> bool:
        """Whether every point up to ``point`` has been tested."""
        return point < self._next


def extend_while(lock, pending: Callable[[], bool], step: Callable[[], object]) -> None:
    """Run ``step`` while ``pending()``, all inside one meter.  Each step runs
    under ``lock`` and re-checks ``pending`` there, so threads sharing a
    walker extend it one step at a time; a walker already far enough takes
    neither lock nor meter."""
    if pending():
        with metered():
            while pending():
                with lock:
                    if pending():
                        step()


# --------------------------------------------------------------------------
# Built-in partitions.


def pairs() -> Partition:
    """Blocks {2m, 2m+1}."""
    return Partition(
        "pairs",
        lambda a: a - a % 2,
        lambda b: [b, b + 1],
        BoundedBy(2, "infinite"),
    )


def pairs_shifted() -> Partition:
    """Blocks {2m+1, 2m+2} plus the singleton {0}."""

    def block_of(a):
        if a == 0:
            return 0
        return a if a % 2 == 1 else a - 1

    def members(b):
        return [0] if b == 0 else [b, b + 1]

    return Partition("pairs-shifted", block_of, members, BoundedBy(2, "infinite"))


def a0() -> Partition:
    """Pairs {4k, 4k+1} and singletons {4k+2}, {4k+3}.

    Infinitely many one-element blocks, infinitely many two-element blocks,
    and no others.
    """

    def block_of(a):
        return a - 1 if a % 4 == 1 else a

    def members(b):
        return [b, b + 1] if b % 4 == 0 else [b]

    return Partition("a0", block_of, members, BoundedBy(2, "infinite"))


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _tri_root(a: int) -> int:
    k = (math.isqrt(8 * a + 1) - 1) // 2
    while _tri(k + 1) <= a:
        k += 1
    while _tri(k) > a:
        k -= 1
    return k


def intervals_growing() -> Partition:
    """Consecutive intervals of sizes 1, 2, 3, ..."""

    def block_of(a):
        return _tri(_tri_root(a))

    def members(b):
        k = _tri_root(b)
        return list(range(_tri(k), _tri(k + 1)))

    return Partition("intervals-growing", block_of, members, UnboundedFinite())


def singletons() -> Partition:
    return Partition("singletons", lambda a: a, lambda b: [b], BoundedBy(1, 0))


def spread() -> Partition:
    """Blocks of sizes 4, 5, 6, ... interleaved with runs of singletons.

    Unbounded finite sizes with infinitely many singletons and every
    nonsingleton block of size at least 4.
    """
    # segment k = [start_k, start_{k+1}) holds one block of size 4+k and
    # four singletons, with start_k = k(k+15)/2
    def start(k):
        return k * (k + 15) // 2

    def block_index(a):
        k = 0
        while start(k + 1) <= a:
            k += 1
        return k

    def block_of(a):
        k = block_index(a)
        lo = start(k)
        return lo if a < lo + 4 + k else a

    def members(b):
        k = block_index(b)
        lo = start(k)
        if b == lo:
            return list(range(lo, lo + 4 + k))
        return [b]

    return Partition("spread", block_of, members, UnboundedFinite())


def evens_block() -> Partition:
    """One infinite block (the evens) plus odd singletons.

    Representable through block_of, but the infinite block has no finite
    member list, so everything that needs one refuses it.
    """

    def members(b):
        if b == 0:
            raise ProfileViolationError(
                "the even block is infinite and has no finite member list")
        return [b]

    return Partition("evens-block", lambda a: 0 if a % 2 == 0 else a,
                     members, HasInfiniteBlock(0))


def z_pair_blocks() -> Partition:
    """Two-point blocks {3k, 3k+1} indexed by the integers through k, with
    every point 3k+2 a singleton outside the indexed family.

    The integer index of the block at {3k, 3k+1} is nat_to_z(k); the shift on
    indices is realized by :func:`z_block_shift`.
    """

    def block_of(a):
        return a - a % 3 if a % 3 < 2 else a

    def members(b):
        return [b] if b % 3 == 2 else [b, b + 1]

    return Partition("z-pair-blocks", block_of, members, BoundedBy(2, "infinite"))


def z_block_id(z: int) -> int:
    return 3 * z_to_nat(z)


def explicit(blocks: List[List[int]], profile: Profile,
             key: str = "explicit") -> Partition:
    block_map: dict = {}
    members_map: dict = {}
    for blk in blocks:
        blk = sorted(set(blk))
        bid = blk[0]
        members_map[bid] = blk
        for a in blk:
            if a in block_map:
                raise ProfileViolationError(f"explicit blocks overlap at {a}")
            block_map[a] = bid

    def block_of(a):
        return block_map.get(a, a)

    def members(b):
        return members_map.get(b, [b])

    return Partition(key, block_of, members, profile)


def _natural(value, least: int = 0) -> bool:
    return type(value) is int and value >= least


def from_file(path: str) -> Partition:
    """An explicit partition read from JSON: a profile, rest:singletons and
    blocks that are nonempty lists of naturals; ParseError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read partition file {path!r}: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("profile"), dict):
        raise ParseError(f"partition file {path!r} needs an object with a profile")
    prof = payload["profile"]
    kind, count = prof.get("kind"), prof.get("nonsingletons", "infinite")
    if kind == "bounded" and _natural(prof.get("n"), 1) and \
            (count == "infinite" or _natural(count)):
        profile: Profile = BoundedBy(prof["n"], count)
    elif kind == "unbounded-finite":
        profile = UnboundedFinite()
    elif kind == "infinite-block" and _natural(prof.get("block")):
        profile = HasInfiniteBlock(prof["block"])
    else:
        raise ParseError(f"bad profile {prof!r}: n must be a natural >= 1, "
                         "nonsingletons a natural or 'infinite', block a natural")
    blocks = payload.get("blocks")
    if payload.get("rest") != "singletons" or not isinstance(blocks, list) or \
            not all(isinstance(blk, list) and blk and all(map(_natural, blk))
                    for blk in blocks):
        raise ParseError("explicit partition file must declare rest:singletons "
                         "and blocks that are nonempty lists of naturals")
    return explicit(blocks, profile, key=payload.get("key", "explicit"))


BUILTIN_PARTITIONS = {
    "pairs": pairs,
    "pairs-shifted": pairs_shifted,
    "a0": a0,
    "intervals-growing": intervals_growing,
    "singletons": singletons,
    "spread": spread,
    "evens-block": evens_block,
    "z-pair-blocks": z_pair_blocks,
}


def parse_partition(spec: str) -> Partition:
    s = spec.strip()
    if s.startswith("partition:"):
        s = s[len("partition:"):]
    if s.startswith("explicit@"):
        return from_file(s[len("explicit@"):])
    if s in BUILTIN_PARTITIONS:
        return BUILTIN_PARTITIONS[s]()
    raise ParseError(f"unknown partition {spec!r}")


def canonical_A0() -> Partition:
    return a0()


# --------------------------------------------------------------------------
# Classification and membership.


@dataclass
class PartitionClassTag:
    tag: str  # "InP" | "InQ" | "Neither"
    reason: str


def classify_partition(A: Partition) -> PartitionClassTag:
    p = A.profile
    if isinstance(p, UnboundedFinite):
        samples = A.sample_growing_blocks(4)
        return PartitionClassTag(
            "InP", f"declared unbounded finite sizes; growing blocks {samples}")
    if isinstance(p, BoundedBy):
        if p.n >= 2 and p.nonsingletons == "infinite":
            samples = A.sample_nonsingleton_blocks(4)
            return PartitionClassTag(
                "InQ",
                f"sizes bounded by {p.n} with infinitely many nonsingletons; "
                f"samples {samples}")
        return PartitionClassTag(
            "Neither", f"sizes bounded by {p.n} with nonsingletons={p.nonsingletons}")
    return PartitionClassTag("Neither", "has an infinite block")


@dataclass
class MembershipReport:
    answer: str  # "yes" | "no" | "unknown"
    witness_block: Optional[int] = None
    checked_blocks: int = 0
    basis: str = ""


def stabilizer_membership(f: Permutation, A: Partition, window: int) -> MembershipReport:
    """Does f preserve every block of A?  Exact for finite support."""
    if f.support_bound is not None:
        touched = sorted({A.block_of(a) for a in f.moved_points()})
        for b in touched:
            members = A.block_members(b)
            image = sorted(f.forward(x) for x in members)
            if image != members:
                return MembershipReport("no", witness_block=b,
                                        checked_blocks=len(touched),
                                        basis="finite support, block not preserved")
        return MembershipReport("yes", checked_blocks=len(touched),
                                basis="finite support, all touched blocks preserved")
    checked = 0
    for b in A.blocks_within(window):
        members = A.block_members(b)
        image = sorted(f.forward(x) for x in members)
        checked += 1
        if image != members:
            return MembershipReport("no", witness_block=b, checked_blocks=checked,
                                    basis="probed block not preserved")
    return MembershipReport("unknown", checked_blocks=checked,
                            basis="probes consistent, no certificate")


# --------------------------------------------------------------------------
# Conjugation: a permutation carrying the blocks of A onto the blocks of B.


class ConjugatorPermutation(Permutation):
    """Greedy size-matched assignment in increasing block-id order.

    The k-th A-block of size s (in id order) is carried onto the k-th B-block
    of size s, least points first.  Evaluation extends the matching on demand
    and fails with NotIsomorphicError when one side runs out within
    MATCH_SCAN_BLOCKS blocks.  The inverse reads the same matching backwards.
    """

    form = "conjugator"

    def __init__(self, A: Partition, B: Partition):
        super().__init__()
        self.A = A
        self.B = B
        self._a = BlockCursor(A, self.form)
        self._b = BlockCursor(B, self.form)
        self._lock = threading.Lock()
        self._b_queues: dict = {}  # size -> list of unused B-block ids
        self._match: dict = {}     # A block id -> B block id
        self._rmatch: dict = {}

    def _advance_a(self) -> None:
        a = self._a.pull()
        size = len(self.A.block_members(a))
        queue = self._b_queues.get(size, [])
        while not queue:
            if len(self._b.ids) >= MATCH_SCAN_BLOCKS:
                raise NotIsomorphicError(
                    f"no unused block of size {size} found in {self.B.key} "
                    f"after scanning {len(self._b.ids)} blocks")
            b = self._b.pull()
            self._b_queues.setdefault(len(self.B.block_members(b)), []).append(b)
            queue = self._b_queues.get(size, [])
        b = queue.pop(0)
        self._match[a] = b
        self._rmatch[b] = a

    def ensure_blocks(self, count: int) -> None:
        extend_while(self._lock, lambda: len(self._match) < count, self._advance_a)

    def _matched(self, table: dict, block: int, failure: str) -> int:
        """``table[block]``, advancing the A side until it is there."""
        def step():
            if len(self._a.ids) >= MATCH_SCAN_BLOCKS:
                raise NotIsomorphicError(failure.format(block))
            self._advance_a()
        extend_while(self._lock, lambda: block not in table, step)
        return table[block]

    def _fwd(self, alpha):
        a_block = self.A.block_of(alpha)
        b_block = self._matched(self._match, a_block,
                                "A-block {} not reached within scan cap")
        src = self.A.block_members(a_block)
        return self.B.block_members(b_block)[src.index(alpha)]

    def _bwd(self, alpha):
        b_block = self.B.block_of(alpha)
        a_block = self._matched(self._rmatch, b_block,
                                "B-block {} never matched within scan cap")
        dst = self.B.block_members(b_block)
        return self.A.block_members(a_block)[dst.index(alpha)]

    def inverse(self):
        return _Flip(self)


def conjugator(A: Partition, B: Partition, depth: int) -> ConjugatorPermutation:
    """A permutation f carrying (probed) A-blocks onto B-blocks of equal size.

    The k-th block of each size on the A side is matched with the k-th block
    of that size on the B side.  The first ``depth`` blocks of both sides
    must find partners within MATCH_SCAN_BLOCKS blocks, otherwise
    NotIsomorphicError is raised: the probed size multiplicities disagree.
    """
    f = ConjugatorPermutation(A, B)
    f.ensure_blocks(depth)
    with metered():
        for b in itertools.islice(B.iter_blocks(), depth):
            f._bwd(b)
    return f
