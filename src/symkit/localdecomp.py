"""Factoring a permutation of omega into two interval-local permutations.

Breakpoints 0 = a(0) < a(1) < ... are chosen least-first so that the images
and preimages of [0, a(i-1)) stay inside [0, a(i)); then upward and downward
crossers at every second boundary are exchanged, giving a first factor that
preserves each [a(2i), a(2i+2)) and a cofactor preserving each
[a(2i-1), a(2i+1)).
"""
from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import PreconditionError
from .perm import FiniteSupportPermutation, Permutation, WordPermutation, metered


class Breakpoints:
    """Lazily extended breakpoint sequence for a fixed permutation.

    Only the images and preimages of [a(i-1), a(i)) can lift a(i+1) past
    a(i) + 1, so extending costs one pass over the points, or for a certified
    f over its candidate points, since a fixed x lifts it only to x + 1.
    Extension holds the object's lock and appends each breakpoint whole."""

    def __init__(self, f: Permutation, count: int = 1):
        self.f = f
        self.a: List[int] = [0]
        self._points = f._candidates() if f.support_bound is not None else None
        self._lock = threading.Lock()
        self.ensure(count)

    def ensure(self, count: int) -> None:
        if len(self.a) > count:
            return
        f, a, points = self.f, self.a, self._points
        with self._lock, metered():
            while len(a) <= count:
                lo, hi = a[-2] if len(a) > 1 else 0, a[-1]
                top = hi + 1  # points below lo lift the maximum to at most hi
                for x in range(lo, hi) if points is None else points[
                        bisect.bisect_left(points, lo):bisect.bisect_left(points, hi)]:
                    top = max(top, f._fwd(x) + 1, f._bwd(x) + 1)
                a.append(top)

    def value(self, i: int) -> int:
        self.ensure(i)
        return self.a[i]

    def interval(self, i: int) -> Tuple[int, int]:
        """The half-open interval S_i = [a(i), a(i+1)); S_{-1} is empty."""
        if i < 0:
            return (0, 0)
        return (self.value(i), self.value(i + 1))

    def index_of(self, m: int) -> int:
        while self.a[-1] <= m:
            self.ensure(len(self.a))
        return bisect.bisect_right(self.a, m) - 1


def breakpoints(f: Permutation, count: int) -> Breakpoints:
    return Breakpoints(f, count)


class UniformBreakpoints:
    """The breakpoints n*i of a uniform width n, located in O(1)."""

    def __init__(self, n: int):
        self.n = n

    def value(self, i: int) -> int:
        return self.n * i

    def index_of(self, m: int) -> int:
        return m // self.n


class _PairedExchanger(Permutation):
    """The first local factor: swaps paired crossers inside [a(2i), a(2i+2)).

    The breakpoints ``bp`` supply ``value(i)`` = a(i) and ``index_of(m)``,
    the i with a(i) <= m < a(i+1).  Blocks pair on request into one flat
    table; below a(2k), blocks 0..k-1 are all paired: one comparison, one get."""

    form = "local-factor"

    def __init__(self, f: Permutation, bp):
        super().__init__()
        self.f = f
        self.bp = bp
        self._crossers: dict = {}
        self._paired: set = set()
        self._k = self._frontier = 0

    def _exchange(self, mid: int, ups: list, downs: list) -> None:
        """Pair the upward crossers of the boundary mid with the downward ones."""
        if len(ups) != len(downs):
            raise PreconditionError(
                f"crossing counts differ at boundary {mid}: {len(ups)} up vs "
                f"{len(downs)} down")
        self._crossers.update(zip(ups, downs))
        self._crossers.update(zip(downs, ups))

    def _pairing(self, i: int) -> dict:
        """The crosser table, with block i paired."""
        if i in self._paired:
            return self._crossers
        lo, mid, hi = (self.bp.value(2 * i + k) for k in range(3))
        f = self.f
        self._exchange(mid, [x for x in range(lo, mid) if f.forward(x) >= mid],
                       [x for x in range(mid, hi) if f.forward(x) < mid])
        self._paired.add(i)
        k = self._k  # a(2k) is known once block k - 1 is paired
        while k in self._paired:
            k += 1
        self._k, self._frontier = k, self.bp.value(2 * k)
        return self._crossers

    def _fwd(self, alpha):
        if alpha < self._frontier:
            return self._crossers.get(alpha, alpha)
        return self._pairing(self.bp.index_of(alpha) // 2).get(alpha, alpha)

    _bwd = _fwd

    def inverse(self):
        return self


class _SettledExchanger(_PairedExchanger):
    """The first local factor of a certified f, settled when built: every
    block below its support bound a(2k) is paired in one pass over f's
    candidates (those f's breakpoints read), evaluating each once and keeping
    its image in ``images``.  No other point crosses: one lookup, no step."""

    def __init__(self, f: Permutation, bp):
        super().__init__(f, bp)
        xs = bp._points if getattr(bp, "f", None) is f else f._candidates()
        sb = f.support_bound  # a(2k) is the least even breakpoint >= sb
        k = bp.index_of(sb - 1) // 2 + 1 if sb else 0
        self.support_bound = bp.value(2 * k)
        self.images = images = {}
        mid = end = 0
        ups, downs = [], []
        with metered():
            for x in xs:
                if x >= end:  # x opens the next block holding a candidate
                    if ups or downs:
                        self._exchange(mid, ups, downs)
                        ups, downs = [], []
                    i = bp.index_of(x) // 2
                    mid, end = bp.value(2 * i + 1), bp.value(2 * i + 2)
                y = images[x] = f._fwd(x)
                if x < mid:
                    if y >= mid:
                        ups.append(x)
                elif y < mid:
                    downs.append(x)
            self._exchange(mid, ups, downs)

    def _fwd(self, alpha):
        return self._crossers.get(alpha, alpha)

    _bwd = forward = backward = _fwd


class _PaidTable(FiniteSupportPermutation):
    """A finite table whose steps were charged when it was built: it charges none."""

    _fwd = forward = FiniteSupportPermutation._f
    _bwd = backward = FiniteSupportPermutation._b
    inverse = Permutation.inverse


def pair_crossers(f: Permutation, bp) -> Tuple[Permutation, Permutation]:
    """f = g . h with g preserving each [a(2i), a(2i+2)) and h = g^-1 f
    preserving each [a(2i-1), a(2i+1)), where a(i) = bp.value(i).  For a
    certified f, h is the table x -> f(g(x)) read off g's images of f.

    Needs f and f^-1 to map [0, a(i-1)) into [0, a(i)) for every i."""
    if f.support_bound is None:
        g = _PairedExchanger(f, bp)
        return g, WordPermutation([g.inverse(), f])
    g = _SettledExchanger(f, bp)
    pairs, images = g._crossers, g.images
    h = _PaidTable({x: images[pairs.get(x, x)] for x in images})
    h.support_bound = g.support_bound
    return g, h


def decompose_local(f: Permutation, count: int = 8) -> Tuple[Permutation, Permutation]:
    """f = g . h with g preserving each [a(2i), a(2i+2)) and h = g^-1 f
    preserving each [a(2i-1), a(2i+1)), on the least-choice breakpoints."""
    return pair_crossers(f, Breakpoints(f, count))


@dataclass
class LocalityReport:
    answer: str  # "yes" | "no-at-budget" | "unknown"
    invariant_prefixes: List[int]
    stuck_at: Optional[int] = None
    probe: int = 0
    basis: str = ""


def is_local(f: Permutation, probe_prefix: int) -> LocalityReport:
    """Look for invariant initial segments [0, j).

    Certified finite support gives a genuine yes.  Otherwise the answer is
    unknown when witnesses keep appearing in the upper half of the probed
    range, and no-at-budget when the largest witness leaves the rest of the
    range bare.
    """
    if probe_prefix <= 0:
        return LocalityReport("unknown", [], probe=probe_prefix,
                              basis="empty probe")
    witnesses = []
    running_max = -1
    with metered():
        for j in range(1, probe_prefix + 1):
            running_max = max(running_max, f._fwd(j - 1), f._bwd(j - 1))
            if running_max < j:
                witnesses.append(j)
    if f.support_bound is not None:
        return LocalityReport("yes", witnesses, probe=probe_prefix,
                              basis="finite support certificate")
    if witnesses and witnesses[-1] > probe_prefix // 2:
        return LocalityReport("unknown", witnesses, probe=probe_prefix,
                              basis="invariant prefixes persist through the probe")
    stuck = witnesses[-1] if witnesses else 0
    return LocalityReport("no-at-budget", witnesses, stuck_at=stuck,
                          probe=probe_prefix,
                          basis=f"no invariant prefix in ({stuck}, {probe_prefix}]")
