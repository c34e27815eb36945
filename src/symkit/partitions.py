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
from .perm import LazyTable, Permutation, _charge, extend_while, metered, z_to_nat

# Scan caps whose exhaustion decides an answer; any other walk is bounded by
# the evaluation meter alone.
ELIGIBLE_SCAN_BLOCKS = 50_000  # packer: blocks skipped for one big enough
MATCH_SCAN_BLOCKS = 20_000     # conjugator: blocks pulled on either side


# A profile settles which of statements (i)-(iv) its stabilizer satisfies, so
# it carries that class as its ``label``.
@dataclass(frozen=True)
class BoundedBy:
    n: int
    nonsingletons: Union[int, str]  # a count, or "infinite"

    @property
    def label(self) -> str:
        """C_Q with infinitely many blocks of two or more points, else C_1."""
        return "C_Q" if self.n >= 2 and self.nonsingletons == "infinite" else "C_1"


@dataclass(frozen=True)
class UnboundedFinite:
    label = "C_P"


@dataclass(frozen=True)
class HasInfiniteBlock:
    """An infinite block; a declared ``step`` makes it block, block + step, ..."""
    block: int
    step: Optional[int] = None

    label = "C_S"


Profile = Union[BoundedBy, UnboundedFinite, HasInfiniteBlock]


class Partition:
    """Blocks are identified by their least element.  ``block_size``, when
    given, sizes a block in closed form, listing no member."""

    def __init__(self, key: str, block_of: Callable[[int], int],
                 block_members: Callable[[int], List[int]], profile: Profile,
                 block_size: Optional[Callable[[int], int]] = None):
        self.key = key
        self._block_of = block_of
        self._block_members = block_members
        self.profile = profile
        if block_size is not None:
            self.block_size = block_size

    def block_of(self, alpha: int) -> int:
        return self._block_of(alpha)

    def block_members(self, block_id: int) -> List[int]:
        return self._block_members(block_id)

    def block_size(self, block_id: int) -> int:
        return len(self.block_members(block_id))

    def blocks_within(self, window: int) -> List[int]:
        """Ids of the blocks meeting [0, window), in increasing order, walked
        under one meter."""
        with metered():
            return list(itertools.takewhile(lambda b: b < window,
                                            self.iter_blocks()))

    def free_points(self, block_id: int, gamma, n: int) -> List[int]:
        """The first ``n`` points of block ``block_id`` outside the set
        ``gamma``, read off a declared progression or else found through
        block_of alone, so an infinite block needs no member list.  Each point
        up to the last one found charges one step, added once at the end."""
        block_of, out, m, p = self._block_of, [], 0, self.profile
        with metered() as meter:
            stop = meter.limit - meter.spent  # the points the meter allows
            if getattr(p, "step", None) and block_id == p.block:
                room = -((block_id - stop) // p.step)  # its members below stop
                out = progression_outside(block_id, p.step, gamma, min(n, room))
                m = out[-1] + 1 if out else 0
                if len(out) < n or m > stop or out and block_of(out[-1]) != block_id:
                    out, m = [], 0  # the meter stops it, or the step is false: scan
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
        """Check coverage, disjointness and the declared profile, step too, on a window."""
        sizes_seen: dict = {}
        p, step = self.profile, getattr(self.profile, "step", None)
        for a in range(window):
            b = self._block_of(a)
            if step and (b == p.block) != (a >= p.block and (a - p.block) % step == 0):
                raise ProfileViolationError(f"{self.key}: point {a} breaks the step")
            if step and b == p.block:
                continue
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
        for b, s in sizes_seen.items():
            self._check_size(b, s)

    def _check_size(self, b: int, size: int) -> None:
        """ProfileViolationError if block b's size passes a declared bound."""
        if isinstance(self.profile, BoundedBy) and size > self.profile.n:
            raise ProfileViolationError(
                f"{self.key}: block {b} has size {size} > declared bound "
                f"{self.profile.n}")

    def sample_growing_blocks(self, count: int) -> List[int]:
        """Ids of blocks with strictly increasing sizes (UnboundedFinite
        evidence).  Samples walk iter_blocks under one meter, so a profile
        that promises more blocks than exist stops there (form ``blocks``)."""
        out: List[int] = []
        best = 0
        with metered():
            blocks = self.iter_blocks()
            while len(out) < count:
                b = next(blocks)
                if (s := self.block_size(b)) > best:
                    best = s
                    out.append(b)
        return out

    def sample_nonsingleton_blocks(self, count: int, start: int = 0) -> List[int]:
        """Ids of the first ``count`` nonsingleton blocks from id ``start`` on."""
        with metered():
            found = (b for b in self.iter_blocks()
                     if b >= start and self.block_size(b) > 1)
            return list(itertools.islice(found, count))

    def sample_bounded_blocks(self, count: int) -> List[List[int]]:
        """[id, size] of the first ``count`` nonsingleton blocks, each checked
        against the declared size bound."""
        out = [[b, self.block_size(b)]
               for b in self.sample_nonsingleton_blocks(count)]
        for b, size in out:
            self._check_size(b, size)
        return out


def progression_outside(start: int, step: int, avoid, n: int) -> List[int]:
    """The first ``n`` members of start, start + step, ... outside the finite ``avoid``."""
    out, holes = [], sorted(x for x in avoid if x >= start and (x - start) % step == 0)
    for x in [*holes, math.inf]:  # one range per gap; the last is endless
        out.extend(range(start, min(x, start + (n - len(out)) * step), step))
        if len(out) >= n:
            return out
        start = x + step


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
    block whose record raises stays next.  A walk grows through
    :meth:`pull_while`, one pull at a time under the cursor's lock."""

    __slots__ = ("_block_of", "form", "_charge", "_record", "ids", "index", "_next",
                 "_lock")

    def __init__(self, A: Partition, form: str,
                 record: Optional[Callable[[int], None]] = None, charged: bool = True):
        self._block_of = A._block_of
        self.form = form
        self._charge = _charge if charged else (lambda form: None)
        self._record = record
        self.ids: List[int] = []  # the blocks pulled, in id order
        self.index: dict = {}     # block id -> its position in ids
        self._next = 0            # the first point not yet tested
        self._lock = threading.Lock()

    def pull(self) -> int:
        """The next block's id."""
        a = _next_block(self._block_of, self._next, self.form, self._charge)
        if self._record is not None:
            self._record(a)
        self.ids.append(a)
        self.index[a] = len(self.ids) - 1
        self._next = a + 1
        return a

    def pull_while(self, pending: Callable[[], bool]) -> None:
        """Pull blocks while ``pending()`` (:func:`perm.extend_while`)."""
        extend_while(self._lock, pending, self.pull)

    def passed(self, point: int) -> bool:
        """Whether every point up to ``point`` has been tested."""
        return point < self._next


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
    """The largest k with _tri(k) <= a, i.e. (2k + 1)^2 <= 8a + 1."""
    return (math.isqrt(8 * a + 1) - 1) // 2


def intervals_growing() -> Partition:
    """Consecutive intervals of sizes 1, 2, 3, ..."""

    def block_of(a):
        return _tri(_tri_root(a))

    def members(b):
        k = _tri_root(b)
        return list(range(_tri(k), _tri(k + 1)))

    return Partition("intervals-growing", block_of, members, UnboundedFinite(),
                     lambda b: _tri_root(b) + 1)


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
        # the largest k with start(k) <= a, i.e. (2k + 15)^2 <= 8a + 225
        return (math.isqrt(8 * a + 225) - 15) // 2

    def block_of(a):
        k = block_index(a)
        lo = start(k)
        return lo if a < lo + 4 + k else a

    def size(b):
        k = block_index(b)
        return 4 + k if b == start(k) else 1

    def members(b):
        return list(range(b, b + size(b)))

    return Partition("spread", block_of, members, UnboundedFinite(), size)


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
                     members, HasInfiniteBlock(0, step=2))


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
    """An explicit partition read from JSON: rest:singletons, blocks that are
    nonempty lists of naturals, and a profile true of them; ParseError
    otherwise.  Finitely many finite blocks have one true kind of profile:
    bounded, with n at least the largest block and nonsingletons the number
    of blocks of two or more points."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read partition file {path!r}: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("profile"), dict):
        raise ParseError(f"partition file {path!r} needs an object with a profile")
    blocks = payload.get("blocks")
    if payload.get("rest") != "singletons" or not isinstance(blocks, list) or \
            not all(isinstance(blk, list) and blk and all(map(_natural, blk))
                    for blk in blocks):
        raise ParseError("explicit partition file must declare rest:singletons "
                         "and blocks that are nonempty lists of naturals")
    prof = payload["profile"]
    n, count = prof.get("n"), prof.get("nonsingletons")
    sizes = [len(set(blk)) for blk in blocks]
    largest, nonsingletons = max(sizes, default=1), sum(s > 1 for s in sizes)
    if prof.get("kind") != "bounded" or not _natural(n, largest) or \
            not _natural(count) or count != nonsingletons:
        raise ParseError(f"partition file {path!r} declares a false profile "
                         f"{prof!r}: its blocks need kind 'bounded', "
                         f"n >= {largest} and nonsingletons {nonsingletons}")
    return explicit(blocks, BoundedBy(n, count), key=payload.get("key", "explicit"))


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


# --------------------------------------------------------------------------
# Membership.


@dataclass
class MembershipReport:
    answer: str  # "yes" | "no" | "unknown"
    witness_block: Optional[int] = None
    checked_blocks: int = 0
    basis: str = ""


def stabilizer_membership(f: Permutation, A: Partition, window: int) -> MembershipReport:
    """Does f preserve every block of A?  Exact for finite support."""
    certified = f.support_bound is not None
    blocks = sorted({A.block_of(a) for a in f.moved_points()}) if certified \
        else A.blocks_within(window)
    for checked, b in enumerate(blocks, 1):
        members = A.block_members(b)
        if sorted(f.forward(x) for x in members) != members:
            if certified:
                return MembershipReport("no", witness_block=b, checked_blocks=len(blocks),
                                        basis="finite support, block not preserved")
            return MembershipReport("no", witness_block=b, checked_blocks=checked,
                                    basis="probed block not preserved")
    answer, basis = ("yes", "finite support, all touched blocks preserved") if certified \
        else ("unknown", "probes consistent, no certificate")
    return MembershipReport(answer, checked_blocks=len(blocks), basis=basis)


# --------------------------------------------------------------------------
# Conjugation: a permutation carrying the blocks of A onto the blocks of B.


class ConjugatorPermutation(LazyTable):
    """Greedy size-matched assignment in increasing block-id order.

    The k-th A-block of size s (in id order) is carried onto the k-th B-block
    of size s, least points first.  Each step matches the next A-block and
    settles its points in both tables; a step fails with NotIsomorphicError
    once either side has pulled MATCH_SCAN_BLOCKS blocks.
    """

    form = "conjugator"

    def __init__(self, A: Partition, B: Partition):
        super().__init__()
        self.A = A
        self.B = B
        self._a = BlockCursor(A, self.form)
        self._b = BlockCursor(B, self.form)
        self._b_queues: dict = {}  # size -> member lists of unused B-blocks
        self.matched = 0           # A-blocks matched so far

    def _step(self) -> None:
        if len(self._a.ids) >= MATCH_SCAN_BLOCKS:
            raise NotIsomorphicError(
                f"no block of {self.A.key} left to match within "
                f"{MATCH_SCAN_BLOCKS} blocks")
        src = self.A.block_members(self._a.pull())
        queue = self._b_queues.setdefault(len(src), [])
        while not queue:
            if len(self._b.ids) >= MATCH_SCAN_BLOCKS:
                raise NotIsomorphicError(
                    f"no unused block of size {len(src)} found in {self.B.key} "
                    f"after scanning {len(self._b.ids)} blocks")
            dst = self.B.block_members(self._b.pull())
            self._b_queues.setdefault(len(dst), []).append(dst)
        self._settle(zip(src, queue.pop(0)))
        self.matched += 1

    def ensure_blocks(self, count: int) -> None:
        extend_while(self._lock, lambda: self.matched < count, self._step)


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
