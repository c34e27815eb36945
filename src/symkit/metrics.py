"""Generalized metrics on the naturals, with exact arithmetic.

Distances are exact rationals or INF, which is ``math.inf``: Python compares
it exactly with every int and Fraction, and no other float arises, so no
comparison is rounded.  The square-root metric is supported comparison-only:
it can compare a distance with a rational threshold exactly (via squared
integer arithmetic) but cannot return the distance itself.
"""
from __future__ import annotations

import bisect
import heapq
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    InsufficientSetError,
    NoCertificateError,
    NotUncrowdedError,
    ParseError,
    PreconditionError,
    UnsupportedMetricError,
)
from .localdecomp import UniformBreakpoints, pair_crossers
from .partitions import Partition, extend_while, parse_partition
from .perm import (
    FiniteSupportPermutation,
    Permutation,
    RulePermutation,
    WordPermutation,
    _charge,
    identity,
    metered,
    nat_to_z,
    parse_perm_list,
    verify_window,
    z_to_nat,
)


INF = math.inf

Distance = Union[int, Fraction, float]  # the only float is INF

BALL_CAP = 4096
# points a refined metric keeps in its neighbor cache, each entry built at the
# largest radius asked for that point
NEIGHBOR_CACHE_CAP = 2048
REFINE_VERIFY_WINDOW = 64  # window each move of U is verified on
REFINE_SEARCH_RADIUS = 8   # a refined dist's radius across an infinite base distance


def is_finite(d: Distance) -> bool:
    return d != INF


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


class GeneralizedMetric:
    """Distance oracle with exact comparisons and finite ball enumeration."""

    key = "abstract"
    value_class = "rational"      # or "comparison-only"
    all_finite = False            # every pairwise distance is finite
    discrete_infinite = False     # distinct points sit at distance INF
    uniform_bound: Optional[Callable[[Fraction], int]] = None
    partition: Optional[Partition] = None

    def dist(self, a: int, b: int) -> Distance:
        raise NotImplementedError

    def dist_cmp(self, a: int, b: int, r: Fraction) -> int:
        """Exact comparison of d(a, b) against the rational threshold r."""
        return _cmp(self.dist(a, b), r)

    def ball(self, a: int, r: Fraction, cap: int = BALL_CAP) -> List[int]:
        """The open ball B(a, r), raising NotUncrowdedError past ``cap``."""
        raise NotImplementedError

    def __repr__(self):
        return f"<metric {self.key}>"


class StandardOmega(GeneralizedMetric):
    key = "standard-omega"
    all_finite = True

    def __init__(self):
        self.uniform_bound = lambda r: 2 * _ceil_int(r) + 1

    def dist(self, a, b):
        return abs(a - b)

    def ball(self, a, r, cap=BALL_CAP):
        lo = max(0, _floor_strict(a - r) + 1) if a - r >= 0 else 0
        hi = _ceil_strict(a + r) - 1
        out = [m for m in range(lo, hi + 1) if abs(m - a) < r]
        if len(out) > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
        return out


class StandardZ(GeneralizedMetric):
    """Standard distance on the integers, carried to the naturals."""

    key = "standard-z"
    all_finite = True

    def __init__(self):
        self.uniform_bound = lambda r: 2 * _ceil_int(r) + 1

    def dist(self, a, b):
        return abs(nat_to_z(a) - nat_to_z(b))

    def ball(self, a, r, cap=BALL_CAP):
        z = nat_to_z(a)
        out = []
        k = _ceil_int(r)
        for dz in range(-k, k + 1):
            if abs(dz) < r:
                out.append(z_to_nat(z + dz))
        if len(out) > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
        return sorted(out)


def _ceil_int(r) -> int:
    f = Fraction(r)
    return -((-f.numerator) // f.denominator)


def _floor_strict(r) -> int:
    """Largest integer strictly below r."""
    f = Fraction(r)
    return (f.numerator - 1) // f.denominator


def _ceil_strict(r) -> int:
    """Smallest integer strictly above r."""
    return -_floor_strict(-Fraction(r))


class SqrtMetric(GeneralizedMetric):
    """Points n stand for sqrt(n) on the real line; comparison-only."""

    key = "sqrt"
    value_class = "comparison-only"
    all_finite = True

    def dist(self, a, b):
        raise UnsupportedMetricError(
            "sqrt metric is comparison-only; use dist_cmp")

    def dist_cmp(self, a, b, r):
        r = Fraction(r)
        if a == b:
            return _cmp(0, r)
        if r <= 0:
            return 1
        # |sqrt(a) - sqrt(b)| vs r = p/q  <=>  q^2 (a + b) - p^2 vs 2 q^2 sqrt(ab)
        p, q2 = r.numerator, r.denominator ** 2
        lhs = q2 * (a + b) - p * p
        if lhs < 0:
            return -1
        return _cmp(lhs * lhs, 4 * q2 * q2 * a * b)

    def ball(self, a, r, cap=BALL_CAP):
        """The interval of m with |sqrt(m) - sqrt(a)| < r, each end found by
        galloping out from a and bisecting (unbounded search)."""
        r = Fraction(r)
        if r <= 0:
            return []
        reach = max(0, cap)   # an end at offset cap already makes cap + 1 points
        hi = a + _last_true(lambda k: self.dist_cmp(a, a + k, r) < 0, reach)
        lo = a - _last_true(lambda k: self.dist_cmp(a, a - k, r) < 0,
                            min(a, reach))
        if hi - lo + 1 > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
        return list(range(lo, hi + 1))


def _last_true(pred: Callable[[int], bool], n: int) -> int:
    """The largest k in [0, n] with pred(k), for pred true at 0 and then
    false from some k on: probe 1, 2, 4, ... and bisect the last gap."""
    good, bad = 0, 1
    while bad <= n and pred(bad):
        good, bad = bad, 2 * bad
    gap = range(good + 1, min(bad, n + 1))
    return good + bisect.bisect_left(gap, True, key=lambda k: not pred(k))


class UltraBase2(GeneralizedMetric):
    """d(a, b) is the position (from 1) of the highest differing binary digit."""

    key = "ultra-base2"
    all_finite = True

    def __init__(self):
        self.uniform_bound = lambda r: 2 ** max(0, _floor_strict(r))

    def dist(self, a, b):
        if a == b:
            return 0
        return (a ^ b).bit_length()

    def ball(self, a, r, cap=BALL_CAP):
        k = _floor_strict(r)
        if k < 0:
            return []
        size = 2 ** k
        if size > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
        base = a - (a % size)
        return list(range(base, base + size))


class PartitionMetric(GeneralizedMetric):
    """Distance 1 inside a block, INF across blocks."""

    def __init__(self, A: Partition):
        if A.profile.kind == "infinite-block":
            raise UnsupportedMetricError(
                "partition metric needs finite blocks (balls must be finite)")
        self.partition = A
        self.key = f"partition@{A.key}"
        if A.profile.kind == "bounded":
            n = A.profile.n
            self.uniform_bound = lambda r, n=n: 1 if r <= 1 else n

    def dist(self, a, b):
        if a == b:
            return 0
        return 1 if self.partition.block_of(a) == self.partition.block_of(b) else INF

    def ball(self, a, r, cap=BALL_CAP):
        if r <= 0:
            return []
        if r <= 1:
            return [a]
        members = self.partition.block_members(self.partition.block_of(a))
        if len(members) > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
        return list(members)


class DiscreteInfinite(GeneralizedMetric):
    """Distinct points all at distance INF; every finite ball is a singleton."""

    key = "discrete"
    discrete_infinite = True

    def __init__(self):
        self.uniform_bound = lambda r: 1

    def dist(self, a, b):
        return 0 if a == b else INF

    def ball(self, a, r, cap=BALL_CAP):
        return [a] if r > 0 else []


class UniformHalf(GeneralizedMetric):
    """Distinct points all at distance 1/2: the unit ball is infinite."""

    key = "uniform-half"
    all_finite = True

    def dist(self, a, b):
        return Fraction(0) if a == b else Fraction(1, 2)

    def ball(self, a, r, cap=BALL_CAP):
        if r <= 0:
            return []
        if r <= Fraction(1, 2):
            return [a]
        raise NotUncrowdedError("unit ball is infinite", center=a, radius=r)


class CayleyZ2(GeneralizedMetric):
    """Path metric on the grid Z^2; points coded by a fixed pairing."""

    key = "cayley-z2"
    all_finite = True

    def __init__(self):
        def bound(r):
            k = max(0, _ceil_int(r) - 1)
            return 2 * k * k + 2 * k + 1

        self.uniform_bound = bound

    @staticmethod
    def decode(m: int) -> Tuple[int, int]:
        w = (math.isqrt(8 * m + 1) - 1) // 2
        while (w + 1) * (w + 2) // 2 <= m:
            w += 1
        while w * (w + 1) // 2 > m:
            w -= 1
        v = m - w * (w + 1) // 2
        u = w - v
        return nat_to_z(u), nat_to_z(v)

    @staticmethod
    def encode(x: int, y: int) -> int:
        u, v = z_to_nat(x), z_to_nat(y)
        return (u + v) * (u + v + 1) // 2 + v

    def dist(self, a, b):
        xa, ya = self.decode(a)
        xb, yb = self.decode(b)
        return abs(xa - xb) + abs(ya - yb)

    def ball(self, a, r, cap=BALL_CAP):
        x, y = self.decode(a)
        k = max(0, _ceil_int(r) - 1)
        out = []
        for dx in range(-k, k + 1):
            rem = k - abs(dx)
            for dy in range(-rem, rem + 1):
                if abs(dx) + abs(dy) < r:
                    out.append(self.encode(x + dx, y + dy))
        if len(out) > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
        return sorted(out)


class CayleyF2(GeneralizedMetric):
    """Word metric on the free group on two generators.

    Points are reduced words enumerated by length then lexicographically over
    the alphabet a, A, b, B (capital = inverse).  Within a length n >= 1 the
    rank reads the first letter as a digit 0..3 and each later one as a
    base-3 digit among the letters that do not cancel it; the index is
    2*3^(n-1) - 1 + rank.  So the prefix j letters shorter has rank
    rank // 3^j, and the extensions by t letters have the 3^t ranks from
    rank * 3^t.
    """

    key = "cayley-f2"
    all_finite = True

    def __init__(self):
        def bound(r):
            k = max(0, _ceil_int(r) - 1)
            return 2 * 3 ** k - 1 if k > 0 else 1

        self.uniform_bound = bound

    @staticmethod
    def _decode(m: int) -> Tuple[int, int]:
        """(length, rank) of the word with index m."""
        if m == 0:
            return 0, 0
        length, first, count = 1, 1, 4
        while m >= first + count:
            first += count
            count *= 3
            length += 1
        return length, m - first

    @staticmethod
    def _index(length: int, rank: int) -> int:
        return 2 * 3 ** (length - 1) - 1 + rank if length else 0

    def dist(self, a, b):
        # reduced words meet at their longest common prefix
        na, ra = self._decode(a)
        nb, rb = self._decode(b)
        n = min(na, nb)
        ra //= 3 ** (na - n)
        rb //= 3 ** (nb - n)
        while n and ra != rb:
            n -= 1
            ra //= 3
            rb //= 3
        return na + nb - 2 * n

    def ball(self, a, r, cap=BALL_CAP):
        k = max(0, _ceil_int(r) - 1)
        size = 2 * 3 ** k - 1 if r > 0 else 0
        if size > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
        if not size:
            return []
        # walk up from the center; j steps up, take the ancestor and the
        # subtrees of its children, but not the child leading back down
        out = []
        length, rank = self._decode(a)
        back = None
        for j in range(min(k, length) + 1):
            out.append(self._index(length, rank))
            children = range(4) if not length else range(3 * rank, 3 * rank + 3)
            for c in children:
                if c == back:
                    continue
                for t in range(k - j):
                    lo = self._index(length + 1 + t, c * 3 ** t)
                    out.extend(range(lo, lo + 3 ** t))
            back, length, rank = rank, length - 1, rank // 3
        out.sort()
        return out


def metric_from_partition(A: Partition) -> PartitionMetric:
    return PartitionMetric(A)


# --------------------------------------------------------------------------
# Refinement: shortest alternating paths mixing base-metric segments with
# unit-cost moves by the permutations of U.


def _exact(r) -> Union[int, Fraction]:
    """r as an int when integral, else as a Fraction: integral costs and radii
    add, compare and hash as ints, several times faster than Fractions, and
    a fractional step still mixes in exactly."""
    r = r if isinstance(r, (int, Fraction)) else Fraction(r)
    return r.numerator if r.denominator == 1 else r


@dataclass
class BudgetedDistance:
    kind: str  # "exact" | "atleast"
    value: Distance


class RefinedMetric(GeneralizedMetric):
    def __init__(self, base: GeneralizedMetric, U: Sequence[Permutation]):
        if base.value_class != "rational":
            raise UnsupportedMetricError(
                "refinement needs a rational-valued base metric")
        for u in U:
            rep = verify_window(u, REFINE_VERIFY_WINDOW)
            if not rep.ok:
                raise PreconditionError(
                    f"refinement input fails verify_window: {rep.failure}")
        self.base = base
        self.U = list(U)
        self._moves = [m for u in self.U for m in (u, u.inverse())]
        self.key = f"refine({base.key};|U|={len(self.U)})"
        self.all_finite = base.all_finite
        self._neighbor_cache: dict = {}
        if base.uniform_bound is not None:
            k, base_bound = max(1, len(self._moves)), base.uniform_bound
            # each unit-cost move adds 1 to a path's cost: fewer than r of them
            self.uniform_bound = lambda r: sum(
                base_bound(r) ** (n + 1) * k ** n for n in range(_ceil_int(r)))

    def _neighbors(self, x: int, radius, cap: int) -> tuple:
        """The cache entry (radius, groups) of x: its edges other than to x,
        as (cost, points) groups in increasing cost, each point once per
        group, from the base ball at the full radius.  A search stops at the
        first cost at or past its limit, so a smaller radius reuses the entry
        and a larger one replaces it; the oldest goes past NEIGHBOR_CACHE_CAP."""
        by_cost: dict = {}
        for y in self.base.ball(x, radius, cap=cap):
            if y != x:
                cost = _exact(self.base.dist(x, y))
                by_cost.setdefault(cost, {})[y] = None
        by_cost.setdefault(1, {}).update(
            dict.fromkeys(u._fwd(x) for u in self._moves))
        by_cost[1].pop(x, None)
        entry = (radius, tuple((c, tuple(by_cost[c])) for c in sorted(by_cost)))
        cache = self._neighbor_cache
        cache.pop(x, None)
        if len(cache) >= NEIGHBOR_CACHE_CAP:
            cache.pop(next(iter(cache)), None)
        cache[x] = entry
        return entry

    def _search(self, start: int, limit, cap: int = BALL_CAP) -> dict:
        """Settled points of the ball of radius ``limit`` (see _exact) around
        start, with their distances, under one meter for the moves of U."""
        cache = self._neighbor_cache
        dist = {start: 0}
        settled: dict = {}
        heap = [(0, start)]
        with metered():
            while heap:
                v, x = heapq.heappop(heap)
                if x in settled:
                    continue
                if v >= limit:
                    break
                settled[x] = v
                if len(settled) > cap:
                    raise NotUncrowdedError(
                        "refined ball exceeds cap", center=start, radius=limit)
                entry = cache.get(x)
                if entry is None or entry[0] < limit:
                    entry = self._neighbors(x, limit, cap)
                for step, ys in entry[1]:
                    w = v + step
                    if w >= limit:
                        break
                    for y in ys:
                        if y not in dist or w < dist[y]:
                            dist[y] = w
                            heapq.heappush(heap, (w, y))
        return settled

    def dist_budgeted(self, a: int, b: int, radius: Fraction) -> BudgetedDistance:
        radius = _exact(radius)
        settled = {a: 0} if a == b else self._search(a, radius)
        if b in settled:
            return BudgetedDistance("exact", settled[b])
        return BudgetedDistance("atleast", radius)

    def dist(self, a, b):
        base_d = self.base.dist(a, b)
        if is_finite(base_d):
            return self.dist_budgeted(a, b, base_d + 1).value
        res = self.dist_budgeted(a, b, REFINE_SEARCH_RADIUS)
        if res.kind == "exact":
            return res.value
        raise UnsupportedMetricError(
            f"distance exceeds the search radius {REFINE_SEARCH_RADIUS}; "
            f"use dist_budgeted")

    def ball(self, a, r, cap=BALL_CAP):
        return sorted(self._search(a, _exact(r), cap=cap))


def refine_metric(d: GeneralizedMetric, U: Sequence[Permutation]) -> RefinedMetric:
    return RefinedMetric(d, U)


# --------------------------------------------------------------------------
# Norms and boundedness.


@dataclass
class NormReport:
    lower_bound: Distance
    certificate: str            # "finite" | "infinite" | "unknown"
    bound: Optional[Distance] = None
    witness_pairs: Optional[list] = None

    @property
    def certified_finite(self):
        return self.certificate == "finite"

    @property
    def certified_infinite(self):
        return self.certificate == "infinite"


def _farthest(g: Permutation, d: GeneralizedMetric, points) -> Distance:
    """The largest d(a, a.g) over the points, stopping at INF; run metered."""
    best: Distance = 0
    for a in points:
        v = d.dist(a, g._fwd(a))
        if v > best:
            best = v
            if best == INF:
                break
    return best


def _support_norm(g: Permutation, d: GeneralizedMetric) -> Distance:
    """Exact norm of a certified finite-support permutation."""
    with metered():
        return _farthest(g, d, g._candidates())


def _certified_bound(g: Permutation, d: GeneralizedMetric) -> Optional[Distance]:
    if d.key in g.displacement_bounds:
        return g.displacement_bounds[d.key]
    if g.support_bound is not None:
        if d.value_class != "rational":
            return None
        return _support_norm(g, d)
    if isinstance(g, WordPermutation):
        parts = [_certified_bound(f, d) for f in g.factors]
        if all(p is not None for p in parts):
            return sum(parts, 0)
    return None


def _lower_bound(g: Permutation, d: GeneralizedMetric, window: int) -> Distance:
    """The largest displacement on [0, window); a window that covers a
    certified g's support tests only its candidates."""
    with metered():
        covered = g.support_bound is not None and g.support_bound <= window
        points = g._candidates() if covered else range(window)
        if d.value_class == "rational":
            return _farthest(g, d, points)
        # comparison-only: the largest integer threshold some probed pair meets
        best_t = 0
        for a in points:
            b = g._fwd(a)
            while b != a and best_t < window and \
                    d.dist_cmp(a, b, Fraction(best_t + 1)) >= 0:
                best_t += 1
        return best_t


def norm(g: Permutation, d: GeneralizedMetric, window: int = 256) -> NormReport:
    lower = _lower_bound(g, d, window)
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
    if lower == INF:  # one displacement is already infinite
        return NormReport(lower, "infinite")
    if g.support_bound is not None and d.value_class == "rational" and \
            d.key not in g.displacement_bounds:  # a scan of the support is exact
        exact = lower if g.support_bound <= window else _support_norm(g, d)
        if exact == INF:
            return NormReport(INF, "infinite")
        return NormReport(lower, "finite", bound=exact)
    bound = _certified_bound(g, d)
    if bound is not None and bound != INF:  # an INF sum bounds nothing
        return NormReport(lower, "finite", bound=max(bound, lower))
    return NormReport(lower, "unknown")


@dataclass
class ContainsReport:
    answer: str  # "yes" | "no" | "unknown"
    report: NormReport


def fn_contains(g: Permutation, d: GeneralizedMetric, window: int = 256) -> ContainsReport:
    rep = norm(g, d, window)
    if rep.certified_finite:
        return ContainsReport("yes", rep)
    if rep.certified_infinite:
        return ContainsReport("no", rep)
    return ContainsReport("unknown", rep)


# --------------------------------------------------------------------------
# Unbounded-element witnesses.


WITNESS_SCAN_CAP = 100_000  # points of sigma, or blocks per pair, that may be scanned


def _far_partner(d: GeneralizedMetric, a: int, j: int, candidates: Iterable[int],
                 used) -> Optional[int]:
    """The first candidate other than a and not in ``used`` at distance at
    least j from a, or None; each distance test charges one step."""
    r = Fraction(j)
    for b in candidates:
        if b != a and b not in used:
            _charge("unbounded-witness")
            if d.dist_cmp(a, b, r) >= 0:
                return b
    return None


def unbounded_witness(d: GeneralizedMetric, sigma: Iterable[int],
                      J: int) -> FiniteSupportPermutation:
    """Swap pairs (a_j, b_j), j = 1..J, drawn from sigma with d(a_j, b_j) >= j.

    a_j is the first unused point of sigma; b_j the first unused point of
    sigma outside the open ball B(a_j, j).  All chosen points lie in sigma,
    so the witness preserves any block containing sigma.  Needing more than
    ``WITNESS_SCAN_CAP`` points of sigma raises InsufficientSetError.
    """
    points: list = []
    rest = iter(sigma)

    def prefix():  # sigma's points in order, pulled on demand
        yield from points
        for v in rest:
            if len(points) == WITNESS_SCAN_CAP:
                raise InsufficientSetError("scan cap exceeded")
            points.append(v)
            yield v
        raise InsufficientSetError(
            f"point enumeration exhausted after {len(points)} points")

    used: set = set()
    mapping: dict = {}
    with metered():
        for j in range(1, J + 1):
            a = next(p for p in prefix() if p not in used)
            b = _far_partner(d, a, j, prefix(), used)
            used.update((a, b))
            mapping[a], mapping[b] = b, a
    return FiniteSupportPermutation(mapping)


def unbounded_witness_in_stabilizer(d: GeneralizedMetric, A: Partition,
                                    J: int) -> FiniteSupportPermutation:
    """A block-preserving permutation of unbounded norm under d.

    Each pair (a_j, b_j) is drawn from the next block of A with two points
    at distance >= j, so the swaps preserve every block while the distances
    grow without bound.  Needs unbounded block sizes (and a metric whose
    within-block distances grow with block size, e.g. the standard metric
    over growing intervals); ``WITNESS_SCAN_CAP`` blocks without a pair
    raise InsufficientSetError.
    """
    mapping: dict = {}
    blocks = A.iter_blocks()
    with metered():
        for j in range(1, J + 1):
            for _ in range(WITNESS_SCAN_CAP):
                members = A.block_members(next(blocks))
                pair = next(((a, b) for a in members
                             if (b := _far_partner(d, a, j, members, ())) is not None),
                            None)
                if pair is not None:
                    break
            else:
                raise InsufficientSetError("scan cap exceeded")
            a, b = pair
            mapping[a], mapping[b] = b, a
    return FiniteSupportPermutation(mapping)


class _FarPairWalk:
    """The rule witness's pairs, from one forward scan of a strictly
    increasing ``sigma_fn``: a_j is the next point, b_j the next point at
    distance >= j, and the points skipped in between stay fixed.  So every
    point up to the last one pulled is settled.  Each pair is committed
    whole, under the walk's lock (:func:`extend_while`)."""

    def __init__(self, d: GeneralizedMetric, sigma_fn: Callable[[int], int]):
        self._d = d
        self._sigma = sigma_fn
        self._lock = threading.Lock()
        self._partner: dict = {}
        self.pairs: list = []
        self._next = 0   # the next index of sigma_fn
        self._last = -1  # the last point pulled

    def _step(self) -> None:
        sigma, i, last = self._sigma, self._next, self._last

        def pull():
            nonlocal i, last
            v = sigma(i)
            if v <= last:
                raise PreconditionError(
                    f"sigma_fn must increase strictly over the naturals: "
                    f"sigma_fn({i}) = {v} after {last}")
            i, last = i + 1, v
            return v

        a = pull()
        b = _far_partner(self._d, a, len(self.pairs) + 1, iter(pull, None), ())
        self._partner[a], self._partner[b] = b, a
        self.pairs.append((a, b))
        self._next, self._last = i, b  # last, so a reader sees the pair first

    def image(self, m: int) -> int:
        if m > self._last:  # a settled point skips the closure
            extend_while(self._lock, lambda: m > self._last, self._step)
        return self._partner.get(m, m)

    def pair(self, j: int) -> Tuple[int, int]:
        extend_while(self._lock, lambda: len(self.pairs) < j, self._step)
        return self.pairs[j - 1]


def unbounded_witness_rule(d: GeneralizedMetric,
                           sigma_fn: Callable[[int], int]) -> RulePermutation:
    """A rule permutation swapping an endless family of certified-far pairs.

    ``sigma_fn(i)`` enumerates the ground set in strictly increasing order;
    a pull that does not increase raises PreconditionError.  The pairs are
    :class:`_FarPairWalk`'s.  The permutation carries a growth witness for
    ``d``, letting norm() certify an infinite norm.
    """
    walk = _FarPairWalk(d, sigma_fn)
    p = RulePermutation("unbounded-witness", walk.image, walk.image,
                        params={"metric": d.key})
    p.growth_witnesses[d.key] = walk.pair
    return p


# --------------------------------------------------------------------------
# Ball-growth classification.


@dataclass
class MetricCaseReport:
    case: str        # "CaseI" | "CaseII" | "CaseIII" | "CaseIV" | "Unknown"
    evidence: dict


DEFAULT_RADII = (Fraction(1), Fraction(2), Fraction(4), Fraction(8))


def _probe_centers(count: int) -> List[int]:
    centers = list(range(min(count, max(16, count - 16))))
    k = 8
    while len(centers) < count and k <= 14:
        centers.append(2 ** k)
        centers.append(3 * 2 ** (k - 1))
        k += 1
    return sorted(set(centers))[:count]


def classify_metric(d: GeneralizedMetric, radii: Sequence[Fraction] = DEFAULT_RADII,
                    centers: int = 512, ball_cap: int = BALL_CAP) -> MetricCaseReport:
    """Sort a metric into the four ball-growth cases, at the stated budgets.

    CaseI: some probed ball exceeds the cap (not uncrowded, at budget).
    CaseII: balls finite but with sizes growing past every sampled bound.
    CaseIII: sizes bounded at budget, with nonsingleton balls persisting
             throughout the probe range for some radius.
    CaseIV: for each radius, nonsingleton balls are confined to a finite
            prefix of the probe range.
    """
    probe = _probe_centers(centers)
    evidence: dict = {"radii": [str(Fraction(r)) for r in radii],
                      "centers": len(probe), "center_list": list(probe),
                      "ball_cap": ball_cap, "per_radius": []}
    growth_detected = False
    persistent_nonsingleton = False
    confined = True
    for r in radii:
        cap_r = ball_cap
        if d.uniform_bound is not None:
            # a declared uniform bound certifies every ball finite; stretch
            # the cap to it so the budget cannot masquerade as crowding
            cap_r = max(ball_cap, d.uniform_bound(Fraction(r)))
        sizes = []
        for c in probe:
            try:
                try:
                    ball = d.ball(c, Fraction(r), cap=cap_r)
                except NotUncrowdedError:
                    # one stretched retry: a big finite ball is growth, not
                    # crowding; only a genuinely unbounded enumeration is CaseI
                    ball = d.ball(c, Fraction(r), cap=cap_r * 64)
                    evidence.setdefault("stretched", []).append(
                        {"center": c, "radius": str(Fraction(r))})
                if d.uniform_bound is not None and \
                        len(ball) > d.uniform_bound(Fraction(r)):
                    raise NotUncrowdedError(
                        "ball exceeds its declared uniform bound",
                        center=c, radius=r)
                sizes.append((c, len(ball)))
            except NotUncrowdedError:
                evidence["overflow"] = {"center": c, "radius": str(Fraction(r))}
                return MetricCaseReport("CaseI", evidence)
        records = []
        best = 0
        for c, s in sizes:
            if s > best:
                best = s
                records.append({"center": c, "size": s})
        nonsingle = [c for c, s in sizes if s > 1]
        stats = {
            "radius": str(Fraction(r)),
            "max_size": best,
            "size_records": records,
            "nonsingleton_count": len(nonsingle),
            "last_nonsingleton": nonsingle[-1] if nonsingle else None,
        }
        evidence["per_radius"].append(stats)
        top = probe[-1]
        if len(records) >= 4 and records[-1]["center"] > top // 2:
            growth_detected = True
        if nonsingle and nonsingle[-1] > (3 * top) // 4 and len(nonsingle) >= 16:
            persistent_nonsingleton = True
        if nonsingle and (nonsingle[-1] > top // 4 or len(nonsingle) > len(probe) // 2):
            confined = False
    if growth_detected:
        evidence["rule"] = "size records persist into the top of the probe range"
        return MetricCaseReport("CaseII", evidence)
    if persistent_nonsingleton:
        evidence["rule"] = "bounded sizes; nonsingleton balls persist"
        return MetricCaseReport("CaseIII", evidence)
    if confined:
        evidence["rule"] = "nonsingleton balls confined to a finite prefix"
        return MetricCaseReport("CaseIV", evidence)
    return MetricCaseReport("Unknown", evidence)


# --------------------------------------------------------------------------
# Net flow across cuts of the integers.


@dataclass
class FlowValue:
    per_cut: dict
    common_value: Optional[int]


def net_flow(f: Permutation, cuts: Iterable[int] = range(-4, 5)) -> FlowValue:
    """Upward minus downward crossers past each cut, in integer coordinates.

    Needs a certified displacement bound for the standard metric on the
    integers: only points within the bound of a cut can cross it.
    """
    bound = _certified_bound(f, StandardZ())
    if bound is None:
        raise NoCertificateError(
            "net_flow needs a certified standard-z displacement bound")
    b = _ceil_int(bound) if bound else 1
    per_cut = {}
    with metered():
        if f.support_bound is not None:  # only moved points can cross a cut
            moved = [(nat_to_z(a), nat_to_z(f._fwd(a))) for a in f.moved_points()]
            per_cut = {c: sum(z < c <= image for z, image in moved) -
                       sum(image < c <= z for z, image in moved) for c in cuts}
        else:  # each point once, however many cut windows hold it
            image: dict = {}
            for c in cuts:
                for z in range(c - b, c + b):
                    if z not in image:
                        image[z] = nat_to_z(f._fwd(z_to_nat(z)))
                per_cut[c] = sum(c <= image[z] for z in range(c - b, c)) - \
                    sum(image[z] < c for z in range(c, c + b))
    values = set(per_cut.values())
    return FlowValue(per_cut, values.pop() if len(values) == 1 else None)


# --------------------------------------------------------------------------
# Factorization of bounded permutations of omega into two interval-local parts.


def factor_fn_omega(f: Permutation, d: Optional[GeneralizedMetric] = None,
                    bound: Optional[int] = None) -> Tuple[Permutation, Permutation]:
    """Split a norm-certified permutation of omega into two interval-local parts.

    With ||f|| <= n and intervals S_i = [n i, n(i+1)), the first factor
    preserves every S_{2i} u S_{2i+1} and the second every S_{2i-1} u S_{2i},
    with product f: localdecomp's crosser pairing on the breakpoints n i.
    """
    if d is None:
        d = StandardOmega()
    if bound is None:
        rep = norm(f, d, window=max(16, (f.support_bound or 0)))
        if not rep.certified_finite:
            raise NoCertificateError("factor_fn_omega needs a certified finite norm")
        bound = _ceil_int(rep.bound)
    n = int(bound)
    if n == 0:
        return identity(), identity()
    return pair_crossers(f, UniformBreakpoints(n))


# --------------------------------------------------------------------------
# Metric spec strings.


def parse_metric(spec: str) -> GeneralizedMetric:
    s = spec.strip()
    if s.startswith("metric:"):
        s = s[len("metric:"):]
    if s == "standard-omega":
        return StandardOmega()
    if s == "standard-z":
        return StandardZ()
    if s == "sqrt":
        return SqrtMetric()
    if s == "ultra-base2":
        return UltraBase2()
    if s == "discrete":
        return DiscreteInfinite()
    if s == "uniform-half":
        return UniformHalf()
    if s == "cayley-z2":
        return CayleyZ2()
    if s == "cayley-f2":
        return CayleyF2()
    if s.startswith("partition@"):
        return PartitionMetric(parse_partition(s[len("partition@"):]))
    if s.startswith("refine(") and s.endswith(")"):
        inner = s[len("refine("):-1]
        parts = inner.split(";", 1)
        base = parse_metric(parts[0])
        perms: List[Permutation] = []
        if len(parts) > 1:
            u = parts[1].strip()
            if not u.startswith("U="):
                raise ParseError(f"expected U=... in {spec!r}")
            perms = parse_perm_list(u[2:], "U", spec)[1]
        return refine_metric(base, perms)
    raise ParseError(f"unknown metric {spec!r}")
