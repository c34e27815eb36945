"""Factoring a permutation of omega into two interval-local permutations.

Breakpoints 0 = a(0) < a(1) < ... are chosen least-first so that the images
and preimages of [0, a(i-1)) stay inside [0, a(i)); then upward and downward
crossers at every second boundary are exchanged, giving a first factor that
preserves each [a(2i), a(2i+2)) and a cofactor preserving each
[a(2i-1), a(2i+1)).
"""
from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Tuple

from .errors import PreconditionError
from .perm import (FiniteSupportPermutation, Permutation, WordPermutation, _charge,
                   extend_while, metered)


class Breakpoints:
    """Lazily extended breakpoint sequence for a fixed permutation.

    Only the images and preimages of [a(i-1), a(i)) can lift a(i+1) past
    a(i) + 1, so extending costs one pass over the points, or for a certified
    f over its candidate points, since a fixed x lifts it only to x + 1.
    Each breakpoint appended is one step, form ``breakpoints``, taken whole
    under the object's lock (:func:`perm.extend_while`); a known one takes
    neither lock nor meter."""

    def __init__(self, f: Permutation, count: int = 1):
        self.f = f
        self.a: List[int] = [0]
        self._points = f._candidates() if f.support_bound is not None else None
        self._lock = threading.Lock()
        self.value(count)

    def _step(self) -> None:
        _charge("breakpoints")
        f, a, points = self.f, self.a, self._points
        lo, hi = a[-2] if len(a) > 1 else 0, a[-1]
        top = hi + 1  # points below lo lift the maximum to at most hi
        for x in range(lo, hi) if points is None else points[
                bisect.bisect_left(points, lo):bisect.bisect_left(points, hi)]:
            top = max(top, f._fwd(x) + 1, f._bwd(x) + 1)
        a.append(top)

    def value(self, i: int) -> int:
        if len(self.a) <= i:
            extend_while(self._lock, lambda: len(self.a) <= i, self._step)
        return self.a[i]

    def index_of(self, m: int) -> int:
        if self.a[-1] <= m:
            extend_while(self._lock, lambda: self.a[-1] <= m, self._step)
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
    the i with a(i) <= m < a(i+1).  Blocks pair into one flat table; below
    a(2k), the frontier, blocks 0..k-1 are all paired and a point is one
    comparison and one get, with no meter.  A certified f has every block
    below its support bound a(2k) paired when built, over f's candidates,
    and keeps their images in ``images``; no other point crosses.  An
    uncertified f pairs block i on request, over [a(2i), a(2i+2))."""

    form = "local-factor"

    def __init__(self, f: Permutation, bp):
        super().__init__()
        self.f = f
        self.bp = bp
        self._crossers: dict = {}
        self._paired: set = set()  # blocks paired on request
        self._k = self._frontier = 0
        sb = f.support_bound
        if sb is not None:  # a(2k) is the least even breakpoint >= sb
            k = bp.index_of(sb - 1) // 2 + 1 if sb else 0
            self.support_bound = bp.value(2 * k)
            with metered():
                self.images = self._pair(bp._points if getattr(bp, "f", None) is f
                                         else f._candidates())
            self._k, self._frontier = k, self.support_bound

    def _pair(self, xs) -> dict:
        """Pair the blocks holding the ascending points xs, which hold every
        point there that f moves, and return f's images of xs.  Each point is
        evaluated once, under the caller's meter; a block's crossing counts are
        checked and its crossers written before the next block's first point
        is read."""
        bp, f, crossers = self.bp, self.f, self._crossers
        images: dict = {}
        mid = end = 0
        ups, downs = [], []
        for x in chain(xs, (math.inf,)):
            if x >= end:  # x opens the next block holding a point, or ends xs
                if len(ups) != len(downs):
                    raise PreconditionError(
                        f"crossing counts differ at boundary {mid}: {len(ups)} up vs "
                        f"{len(downs)} down")
                if ups:
                    crossers.update(zip(ups, downs))
                    crossers.update(zip(downs, ups))
                    ups, downs = [], []
                if x == math.inf:
                    return images
                i = bp.index_of(x) // 2
                mid, end = bp.value(2 * i + 1), bp.value(2 * i + 2)
            y = images[x] = f._fwd(x)
            if x < mid:
                if y >= mid:
                    ups.append(x)
            elif y < mid:
                downs.append(x)

    def _fwd(self, alpha):
        if alpha < self._frontier:
            return self._crossers.get(alpha, alpha)
        if self.support_bound is not None:  # past a certified f's bound
            return alpha
        bp = self.bp
        with metered():  # pair alpha's block i on request
            bp.value(2 * self._k + 2)  # any alpha at or past a(2k) needs it
            i = bp.index_of(alpha) // 2
            if i not in self._paired:
                self._pair(range(bp.value(2 * i), bp.value(2 * i + 2)))
                self._paired.add(i)
                k = self._k  # a(2k) is known once block k - 1 is paired
                while k in self._paired:
                    k += 1
                self._k, self._frontier = k, bp.value(2 * k)
        return self._crossers.get(alpha, alpha)

    _bwd = forward = backward = _fwd

    def inverse(self):
        return self


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
    g = _PairedExchanger(f, bp)
    if f.support_bound is None:
        return g, WordPermutation([g.inverse(), f])
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
            _charge("prefixes")  # past a certified word's bound nothing else does
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
