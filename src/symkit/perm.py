"""Lazy two-sided permutations of the naturals.

Permutations act on the right: ``apply(p, a)`` is the image of ``a`` under
``p``, and a word ``[p, q]`` applies ``p`` first, then ``q``.  Every
permutation carries both directions explicitly; a rule is never inverted by
search.  Evaluation is lazy and budgeted: each top-level ``forward`` or
``backward`` call, and each library loop run under :class:`metered`, gets
10^6 fresh steps on a :class:`Meter` (``limit``, ``spent``) shared by its
nested calls; a finite or rule leaf's one step needs no meter installed.
The metered loops: ``moved_points``, ``conjugate``, ``verify_window``,
``agrees_on_window``, ``parity``, ``verify_to``, tree rounds,
``verify_invariants``, ``Breakpoints.ensure``, ``is_local``, ``net_flow``,
``norm``'s probes, the refined-metric search, and a partition's block
walks (``iter_blocks`` and the lazy witnesses' cursors) and free-point
scans, which charge one step per point tested, and the unbounded witnesses'
far-pair scans, which charge one per distance tested.
:func:`evaluation_budget` yields a meter for a block, and an exhausted meter
stays exhausted until it exits.  Loops test a point once and skip what a
certificate settles: a certified word or half restriction answers from its
support bound up uncharged, a word's ``moved_points`` tests its factors' (a
sole inner word lends its candidates unrun, another sole factor answers for
it), certified breakpoints, crosser pairings and norms test candidates only,
``net_flow`` evaluates each point once, and a constant tail pulls each point
back once.

Values are immutable after construction and safe to share across threads;
memo tables fill idempotently, and a block walk or the rule witness's
far-pair walk extends under its walker's lock.  User-supplied rules must be
pure -- that is a stated contract, not something the library can enforce.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import (
    ConvergenceError,
    EvaluationBudgetError,
    NoSupportCertificateError,
    ParseError,
)

DEFAULT_STEP_BUDGET = 10**6


@dataclass(slots=True)
class Meter:
    """One evaluation budget: ``spent`` primitive applications of ``limit``."""

    limit: int
    spent: int = 0


@dataclass(slots=True)
class _State:
    meter: Optional[Meter] = None
    default: Meter = field(default_factory=lambda: Meter(DEFAULT_STEP_BUDGET))


class _Local(threading.local):
    def __init__(self):  # once per thread: its meter slot and reused default
        self.state = _State()


_local = _Local()


def _charge(form: str) -> None:
    meter = _local.state.meter
    meter.spent += 1
    if meter.spent > meter.limit:
        raise EvaluationBudgetError(
            f"evaluation step budget exhausted: limit {meter.limit}, form {form}",
            limit=meter.limit, spent=meter.spent, form=form)


@contextmanager
def evaluation_budget(limit: int = DEFAULT_STEP_BUDGET):
    """Yield a fresh :class:`Meter` for the block; restore the previous on exit."""
    state = _local.state
    outer, state.meter = state.meter, Meter(limit)
    try:
        yield state.meter
    finally:
        state.meter = outer


class metered:
    """Enter the installed meter, or else the thread's default one with a
    fresh budget, as a top-level call does; inside the block ``_fwd`` and
    ``_bwd`` may be called directly.  Exit restores the previous meter."""

    __slots__ = ("_state", "_outer")

    def __enter__(self) -> Meter:
        state = self._state = _local.state
        outer = self._outer = state.meter
        if outer is not None:
            return outer
        meter = state.meter = state.default
        meter.spent = 0
        return meter

    def __exit__(self, *exc) -> None:
        self._state.meter = self._outer


# --------------------------------------------------------------------------
# The fixed bijection between the integers and the naturals: n >= 0 maps to
# 2n, n < 0 maps to -2n - 1.  All integer-indexed constructions live on the
# naturals through this coding.


def z_to_nat(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


def nat_to_z(m: int) -> int:
    return m // 2 if m % 2 == 0 else -(m + 1) // 2


# --------------------------------------------------------------------------


class Permutation:
    """Base class.  Subclasses implement ``_fwd`` and ``_bwd``."""

    form = "abstract"

    def __init__(self):
        self.support_bound: Optional[int] = None
        # metric key -> certified bound on sup d(a, a.f)
        self.displacement_bounds: dict = {}
        # metric key -> callable j -> (a_j, b_j) with d(a_j, b_j) >= j and
        # a_j.f == b_j (a certified growth witness; see metrics.norm)
        self.growth_witnesses: dict = {}

    def _fwd(self, alpha: int) -> int:
        raise NotImplementedError

    def _bwd(self, alpha: int) -> int:
        raise NotImplementedError

    def forward(self, alpha: int) -> int:
        state = _local.state
        if state.meter is not None:
            return self._fwd(alpha)
        meter = state.meter = state.default
        meter.spent = 0
        try:
            return self._fwd(alpha)
        finally:
            state.meter = None

    def backward(self, alpha: int) -> int:
        state = _local.state
        if state.meter is not None:
            return self._bwd(alpha)
        meter = state.meter = state.default
        meter.spent = 0
        try:
            return self._bwd(alpha)
        finally:
            state.meter = None

    def inverse(self) -> "Permutation":
        raise NotImplementedError

    def _candidates(self):
        """Points outside which a certified permutation is the identity, ascending."""
        return range(self.support_bound)

    def moved_points(self) -> list:
        """Exact support, available only with a finite-support certificate."""
        if self.support_bound is None:
            raise NoSupportCertificateError(
                f"{self.form} permutation carries no finite-support certificate"
            )
        with metered():
            return [a for a in self._candidates() if self._fwd(a) != a]

    def __repr__(self):
        return f"<{type(self).__name__} {format_perm(self)!r}>"


class _Leaf(Permutation):
    """One step, ``_f`` or ``_b``: a top-level call needs no meter installed."""

    def forward(self, alpha):
        if _local.state.meter is None:
            return self._f(alpha)
        return self._fwd(alpha)

    def backward(self, alpha):
        if _local.state.meter is None:
            return self._b(alpha)
        return self._bwd(alpha)


class FiniteSupportPermutation(_Leaf):
    form = "cycles"

    def __init__(self, mapping: dict):
        super().__init__()
        fwd = {a: b for a, b in mapping.items() if a != b}
        self._inv = inv = {b: a for a, b in fwd.items()}
        if inv.keys() != fwd.keys():
            raise ValueError("mapping is not a bijection with finite support")
        if fwd and min(fwd) < 0:  # the images are the same points
            raise ValueError("points must be naturals")
        self._map = fwd
        self.support_bound = max(fwd) + 1 if fwd else 0

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]]) -> "FiniteSupportPermutation":
        mapping: dict = {}
        seen: set = set()
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"cycle {cyc} repeats a point")
            if seen & set(cyc):
                raise ValueError("cycles are not disjoint")
            seen |= set(cyc)
            for i, a in enumerate(cyc):
                mapping[a] = cyc[(i + 1) % len(cyc)]
        return cls(mapping)

    def _fwd(self, alpha):
        _charge("cycles")
        return self._map.get(alpha, alpha)

    def _bwd(self, alpha):
        _charge("cycles")
        return self._inv.get(alpha, alpha)

    def _f(self, alpha):
        return self._map.get(alpha, alpha)

    def _b(self, alpha):
        return self._inv.get(alpha, alpha)

    def inverse(self):
        return FiniteSupportPermutation(self._inv)

    def moved_points(self) -> list:
        return sorted(self._map)

    _candidates = moved_points

    def cycles(self) -> list:
        """Disjoint cycles, each rotated to start at its least point, sorted."""
        out = []
        seen = set()
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            b = self._map[start]
            while b != start:
                cyc.append(b)
                seen.add(b)
                b = self._map[b]
            out.append(tuple(cyc))
        return out


class _Flip(Permutation):
    """The inverse of an underlying permutation, sharing its lazy state."""

    form = "inverse"

    def __init__(self, base: Permutation):
        super().__init__()
        self.base = base
        self.support_bound = base.support_bound

    def _fwd(self, alpha):
        return self.base._bwd(alpha)

    def _bwd(self, alpha):
        return self.base._fwd(alpha)

    def inverse(self):
        return self.base


def identity() -> FiniteSupportPermutation:
    return FiniteSupportPermutation({})


class RulePermutation(_Leaf):
    """A named rule with both directions supplied by the caller."""

    form = "rule"

    def __init__(self, name, fwd, bwd, params=None, support_bound=None,
                 displacement_bounds=None, inverted=False):
        super().__init__()
        self.name = name
        self.params = dict(params or {})
        self._f = fwd
        self._b = bwd
        self.inverted = inverted
        self.support_bound = support_bound
        self.displacement_bounds = dict(displacement_bounds or {})

    def _fwd(self, alpha):
        _charge("rule")
        return self._f(alpha)

    def _bwd(self, alpha):
        _charge("rule")
        return self._b(alpha)

    def inverse(self):
        inv = RulePermutation(
            self.name, self._b, self._f, self.params,
            support_bound=self.support_bound,
            displacement_bounds=self.displacement_bounds,
            inverted=not self.inverted,
        )
        for key, pair in self.growth_witnesses.items():  # a.f == b: b.f^-1 == a
            inv.growth_witnesses[key] = lambda j, pair=pair: pair(j)[::-1]
        return inv


class WordPermutation(Permutation):
    """Left-to-right composition of factors."""

    form = "word"

    def __init__(self, factors: Sequence[Permutation]):
        super().__init__()
        self.factors = list(factors)
        bounds = [f.support_bound for f in self.factors]
        if all(b is not None for b in bounds):
            self.support_bound = max(bounds, default=0)
        keys = None
        for f in self.factors:
            ks = set(f.displacement_bounds)
            keys = ks if keys is None else keys & ks
        for k in keys or ():
            self.displacement_bounds[k] = sum(
                f.displacement_bounds[k] for f in self.factors
            )

    def _fwd(self, alpha):
        if self.support_bound is not None and alpha >= self.support_bound:
            return alpha  # every factor fixes it
        value = alpha
        for f in self.factors:
            value = f._fwd(value)
        return value

    def _bwd(self, alpha):
        if self.support_bound is not None and alpha >= self.support_bound:
            return alpha
        value = alpha
        for f in reversed(self.factors):
            value = f._bwd(value)
        return value

    def inverse(self):
        return WordPermutation([f.inverse() for f in reversed(self.factors)])

    def moved_points(self) -> list:
        fs = self.factors  # a sole certified factor that is not a word is the word
        sole = len(fs) == 1 and fs[0].support_bound is not None and \
            not isinstance(fs[0], WordPermutation)
        return fs[0].moved_points() if sole else super().moved_points()

    def _candidates(self):
        """The factors' moved points; a sole inner word costs the same per
        point as this word, so its candidates are taken without running it."""
        if any(f.support_bound is None for f in self.factors):
            return super()._candidates()
        fs = self.factors
        inner = fs[0]._candidates() if len(fs) == 1 and isinstance(
            fs[0], WordPermutation) else (a for f in fs for a in f.moved_points())
        return sorted({a for a in inner if a < self.support_bound})


def word(*factors: Permutation) -> WordPermutation:
    return WordPermutation(list(factors))


def conjugate(f: Permutation, t: Permutation) -> WordPermutation:
    """The product f^-1 t f (apply f^-1 first).

    When ``t`` has finite support the result does too, with the support
    computed through ``f``, so block-membership checks stay exact.
    """
    c = WordPermutation([f.inverse(), t, f])
    if t.support_bound is not None:
        with metered():
            c.support_bound = max((f._fwd(a) + 1 for a in t.moved_points()),
                                  default=0)
    return c


# --------------------------------------------------------------------------
# Convergent sequences and their limits.


class ConvergentSequence:
    """A sequence j -> (g_j, Gamma_j) meant to converge in the function topology.

    The conditions verified at each level j >= 1 are:

    * containment: {0..j-1} and their preimages under g_{j-1} lie in Gamma_j;
    * coset: g_j agrees with g_{j-1} on every point of Gamma_j.

    Together they force g_j to stabilize on the point j-1 in both directions
    from level j on, so the pointwise limit is again a permutation.
    """

    def __init__(self, terms: Callable[[int], tuple]):
        self._producer = terms
        self._cache: dict = {}
        self.verified_depth = 0

    def term(self, j: int):
        if j not in self._cache:
            g, gamma = self._producer(j)
            self._cache[j] = (g, gamma if isinstance(gamma, (set, frozenset))
                              else frozenset(gamma))
        return self._cache[j]

    def verify_to(self, depth: int) -> None:
        with metered():
            for j in range(self.verified_depth + 1, depth + 1):
                self._check_level(j)
                self.verified_depth = j

    def _check_level(self, j: int) -> None:
        g_prev, _ = self.term(j - 1)
        g_j, gamma_j = self.term(j)
        for i in range(j):
            if i not in gamma_j:
                raise ConvergenceError(
                    f"point {i} missing from Gamma_{j}", level=j, point=i,
                    condition="containment")
            pre = g_prev._bwd(i)
            if pre not in gamma_j:
                raise ConvergenceError(
                    f"preimage {pre} of point {i} under g_{j-1} missing from Gamma_{j}",
                    level=j, point=i, condition="containment")
        if g_j is g_prev:
            return  # a constant term agrees with itself
        for c in sorted(gamma_j):
            if g_j._fwd(c) != g_prev._fwd(c):
                raise ConvergenceError(
                    f"g_{j} disagrees with g_{j-1} at {c} of Gamma_{j}",
                    level=j, point=c, condition="coset")


class ConstantTail(ConvergentSequence):
    """Finitely many terms, then the last one's g forever.  The tail levels
    share one Gamma set that their checks grow in place: level j adds j-1
    and g^-1(j-1), so both conditions hold by construction and each point
    is pulled back once; the set only grows, so threads may share it."""

    def __init__(self, seq_terms: Callable[[int], tuple], depth: int):
        super().__init__(seq_terms)
        self._depth = depth
        self._gamma: set = set()

    def term(self, j: int):
        if j < self._depth:
            return super().term(j)
        g, gamma = super().term(max(self._depth - 1, 0))
        if not self._gamma:
            self._gamma.update(gamma)
        return g, self._gamma

    def _check_level(self, j: int) -> None:
        if j < self._depth:
            return super()._check_level(j)
        g, gamma = self.term(j)  # verify_to has checked every level below j
        for m in range(j - 1 if j > self._depth else 0, j):
            gamma.update((m, g._bwd(m)))


class LimitPermutation(Permutation):
    form = "limit"

    def __init__(self, seq: ConvergentSequence, inverted: bool = False):
        super().__init__()
        self.seq = seq
        self.inverted = inverted
        self._memo_f: dict = {}
        self._memo_b: dict = {}

    def _eval(self, alpha, back):
        memo = self._memo_b if back else self._memo_f
        if alpha in memo:
            return memo[alpha]
        self.seq.verify_to(alpha + 1)
        g, _ = self.seq.term(alpha + 1)
        value = g._bwd(alpha) if back else g._fwd(alpha)
        memo[alpha] = value
        return value

    def _fwd(self, alpha):
        return self._eval(alpha, back=self.inverted)

    def _bwd(self, alpha):
        return self._eval(alpha, back=not self.inverted)

    def inverse(self):
        return LimitPermutation(self.seq, inverted=not self.inverted)


def limit(seq: ConvergentSequence, depth: int) -> LimitPermutation:
    """Verify the sequence to ``depth`` and return its limit permutation."""
    seq.verify_to(depth)
    return LimitPermutation(seq)


# --------------------------------------------------------------------------
# Operations.


def apply(p: Permutation, alpha: int) -> int:
    return p.forward(alpha)


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


@dataclass
class WindowReport:
    ok: bool
    window: int
    failure: Optional[dict] = None

    def __bool__(self):
        return self.ok


def verify_window(p: Permutation, n: int) -> WindowReport:
    """Check two-sided consistency and injectivity of ``p`` on [0, n)."""
    seen: dict = {}
    with metered():
        for alpha in range(n):
            try:
                beta = p._fwd(alpha)
                if not isinstance(beta, int) or beta < 0:
                    return WindowReport(False, n, {
                        "kind": "forward-not-natural", "point": alpha, "value": beta})
                if beta in seen and seen[beta] != alpha:
                    return WindowReport(False, n, {
                        "kind": "forward-collision", "point": alpha,
                        "other": seen[beta], "value": beta})
                seen[beta] = alpha
                if p._bwd(beta) != alpha:
                    return WindowReport(False, n, {
                        "kind": "backward-of-forward", "point": alpha, "value": beta})
                gamma = p._bwd(alpha)
                if not isinstance(gamma, int) or gamma < 0:
                    return WindowReport(False, n, {
                        "kind": "backward-not-natural", "point": alpha, "value": gamma})
                if p._fwd(gamma) != alpha:
                    return WindowReport(False, n, {
                        "kind": "forward-of-backward", "point": alpha, "value": gamma})
            except EvaluationBudgetError:
                raise
            except Exception as exc:  # a user rule misbehaved: report, don't raise
                return WindowReport(False, n, {
                    "kind": "exception", "point": alpha, "error": repr(exc)})
    return WindowReport(True, n)


def parity(p: Permutation) -> str:
    """Sign of a certified finite-support permutation: "even" or "odd"."""
    with metered():
        mapping = {a: p._fwd(a) for a in p.moved_points()}
    seen: set = set()
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


def agrees_on_window(p: Permutation, q: Permutation, n: int) -> bool:
    with metered():
        return all(p._fwd(a) == q._fwd(a) for a in range(n))


# --------------------------------------------------------------------------
# Built-in rules.


def _shift_z():
    def fwd(m):
        return z_to_nat(nat_to_z(m) + 1)

    def bwd(m):
        return z_to_nat(nat_to_z(m) - 1)

    return RulePermutation("shift-z", fwd, bwd,
                           displacement_bounds={"standard-z": 1})


def _swap_pairs():
    def step(m):
        return m ^ 1

    return RulePermutation("swap-pairs", step, step,
                           displacement_bounds={"standard-omega": 1})


def _block_rotate(size: int):
    size = int(size)
    if size < 1:
        raise ValueError("size must be positive")

    def fwd(m):
        q, r = divmod(m, size)
        return q * size + (r + 1) % size

    def bwd(m):
        q, r = divmod(m, size)
        return q * size + (r - 1) % size

    return RulePermutation("block-rotate", fwd, bwd, params={"size": size},
                           displacement_bounds={"standard-omega": size - 1})


def _identity_rule():
    return RulePermutation("identity", lambda m: m, lambda m: m,
                           support_bound=0,
                           displacement_bounds={})


BUILTIN_RULES = {
    "identity": lambda params: _identity_rule(),
    "shift-z": lambda params: _shift_z(),
    "swap-pairs": lambda params: _swap_pairs(),
    "block-rotate": lambda params: _block_rotate(params.get("size", 2)),
}


def rule(name: str, **params) -> RulePermutation:
    if name not in BUILTIN_RULES:
        raise ParseError(f"unknown rule {name!r}")
    return BUILTIN_RULES[name](params)


# --------------------------------------------------------------------------
# Text and JSON formats.
#
#   cycles:(0 1 2)(5 6)      finite support
#   rule:shift-z             built-in rule; parameters as ;key=value
#   word:[p1,p2^-1,...]      factors composed left to right
#
# A trailing ^-1 on any form denotes the inverse.


def format_perm(p: Permutation) -> str:
    if isinstance(p, FiniteSupportPermutation):
        cycs = p.cycles()
        if not cycs:
            return "cycles:()"
        return "cycles:" + "".join(
            "(" + " ".join(str(a) for a in c) + ")" for c in cycs)
    if isinstance(p, RulePermutation):
        s = "rule:" + p.name
        for k, v in sorted(p.params.items()):
            s += f";{k}={v}"
        if p.inverted:
            s += "^-1"
        return s
    if isinstance(p, WordPermutation):
        return "word:[" + ",".join(format_perm(f) for f in p.factors) + "]"
    return f"{p.form}:<opaque>"


def split_top(s: str, sep: str) -> list:
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_points(text: str) -> list:
    """Comma-separated natural numbers; empty entries are skipped."""
    points = []
    for x in text.split(","):
        x = x.strip()
        if not x:
            continue
        if not x.isdecimal():
            raise ParseError(f"expected a natural number, got {x!r}")
        points.append(int(x))
    return points


def parse_perm_list(body: str, name: str, text: str, pos=None):
    """The inner text of ``body``, a bracketed list ``[p, q, ...]``, and its
    permutations; ParseError ``{name} needs [...]`` quoting ``text``, at
    ``pos``, when a bracket is missing."""
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ParseError(f"{name} needs [...] in {text!r}", pos)
    inner = body[1:-1].strip()
    return inner, [parse_perm(p) for p in split_top(inner, ",")] if inner else []


def parse_perm(text: str) -> Permutation:
    s = text.strip()
    inverted = False
    if s.endswith("^-1"):
        inverted = True
        s = s[: -3].strip()
    if s.startswith("cycles:"):
        body = s[len("cycles:"):]
        cycles = []
        i = 0
        while i < len(body):
            if body[i] != "(":
                raise ParseError(f"expected '(' in {text!r}", i)
            j = body.find(")", i)
            if j < 0:
                raise ParseError(f"unclosed cycle in {text!r}", i)
            inner = body[i + 1:j].replace(",", " ").split()
            if inner:
                try:
                    cycles.append([int(x) for x in inner])
                except ValueError:
                    raise ParseError(f"bad cycle entry in {text!r}", i)
            i = j + 1
        try:
            p = FiniteSupportPermutation.from_cycles(cycles)
        except ValueError as exc:
            raise ParseError(f"{exc} in {text!r}", 0) from None
    elif s.startswith("rule:"):
        body = s[len("rule:"):]
        pieces = body.split(";")
        name = pieces[0]
        params = {}
        for piece in pieces[1:]:
            if "=" not in piece:
                raise ParseError(f"bad rule parameter {piece!r}", 0)
            k, v = piece.split("=", 1)
            params[k] = int(v) if v.lstrip("-").isdigit() else v
        if name not in BUILTIN_RULES:
            raise ParseError(f"unknown rule {name!r}", 0)
        try:
            p = BUILTIN_RULES[name](params)
        except ValueError as exc:
            raise ParseError(f"{exc} in {text!r}", 0) from None
    elif s.startswith("word:"):
        p = WordPermutation(parse_perm_list(s[len("word:"):], "word", text, 0)[1])
    else:
        raise ParseError(f"unknown permutation form {text!r}", 0)
    return p.inverse() if inverted else p


def perm_to_json(p: Permutation) -> dict:
    if isinstance(p, FiniteSupportPermutation):
        return {"form": "cycles", "cycles": [list(c) for c in p.cycles()]}
    if isinstance(p, RulePermutation):
        out = {"form": "rule", "rule": p.name, "params": p.params}
        if p.inverted:
            out["inverse"] = True
        return out
    if isinstance(p, WordPermutation):
        return {"form": "word", "factors": [perm_to_json(f) for f in p.factors]}
    return {"form": p.form}


def perm_from_json(obj: dict) -> Permutation:
    form = obj.get("form")
    if form == "cycles":
        return FiniteSupportPermutation.from_cycles(obj["cycles"])
    if form == "rule":
        p = rule(obj["rule"], **(obj.get("params") or {}))
        return p.inverse() if obj.get("inverse") else p
    if form == "word":
        return WordPermutation([perm_from_json(f) for f in obj["factors"]])
    raise ParseError(f"unknown permutation form {form!r}")
