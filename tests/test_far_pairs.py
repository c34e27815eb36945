"""The three unbounded witnesses, against the witnesses they replaced.

The oracles below are ``unbounded_witness``, ``unbounded_witness_in_stabilizer``
and ``unbounded_witness_rule`` as they stood when each picked its far pairs
its own way, with its own scan cap, unmetered.  Over the built-in metrics,
the witnesses built on the one far-pair search must give the same cycles, the
same ``InsufficientSetError`` outcomes and the same images.  The rule witness
also keeps its own promises: its ground set must increase, and a step that
raises leaves it as it was.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.errors import (
    EvaluationBudgetError,
    InsufficientSetError,
    NotUncrowdedError,
    PreconditionError,
)
from symkit.metrics import (
    StandardOmega,
    parse_metric,
    unbounded_witness,
    unbounded_witness_in_stabilizer,
    unbounded_witness_rule,
)
from symkit.partitions import intervals_growing
from symkit.perm import FiniteSupportPermutation, RulePermutation, evaluation_budget


# --------------------------------------------------------------------------
# Oracles: the three witnesses with their own scans and caps.


def old_unbounded_witness(d, sigma, J, scan_cap=100_000):
    points = []
    it = iter(sigma)
    used: set = set()
    mapping: dict = {}

    def pull(n):
        while len(points) < n:
            try:
                points.append(next(it))
            except StopIteration:
                raise InsufficientSetError(
                    f"point enumeration exhausted after {len(points)} points")
            if len(points) > scan_cap:
                raise InsufficientSetError("scan cap exceeded")

    pos = 0
    for j in range(1, J + 1):
        a = None
        while a is None:
            pull(pos + 1)
            cand = points[pos]
            pos += 1
            if cand not in used:
                a = cand
        used.add(a)
        b = None
        i = 0
        while b is None:
            pull(i + 1)
            cand = points[i]
            i += 1
            if cand in used or cand == a:
                continue
            if d.dist_cmp(a, cand, Fraction(j)) >= 0:
                b = cand
            if i > scan_cap:
                raise InsufficientSetError(
                    f"no point at distance >= {j} from {a} within the scanned "
                    f"prefix of sigma")
        used.add(b)
        mapping[a] = b
        mapping[b] = a
    return FiniteSupportPermutation(mapping)


def old_unbounded_witness_in_stabilizer(d, A, J, scan_cap=100_000):
    mapping: dict = {}
    used: set = set()
    blocks = A.iter_blocks()
    for j in range(1, J + 1):
        found = False
        scanned = 0
        while not found:
            try:
                bid = next(blocks)
            except StopIteration:
                raise InsufficientSetError("partition ran out of blocks")
            scanned += 1
            if scanned > scan_cap:
                raise InsufficientSetError("scan cap exceeded")
            members = [m for m in A.block_members(bid) if m not in used]
            for a in members:
                far = [b for b in members
                       if b != a and d.dist_cmp(a, b, Fraction(j)) >= 0]
                if far:
                    b = far[0]
                    mapping[a] = b
                    mapping[b] = a
                    used.update((a, b))
                    found = True
                    break
    return FiniteSupportPermutation(mapping)


def old_unbounded_witness_rule(d, sigma_fn, prebuild=16):
    state = {"pos": 0, "partner": {}, "scanned": set(), "pairs": [],
             "last": None, "ascending": True}

    def pull():
        v = sigma_fn(state["pos"])
        state["pos"] += 1
        state["scanned"].add(v)
        if state["last"] is not None and v <= state["last"]:
            state["ascending"] = False
        state["last"] = v
        return v

    def extend(upto_j):
        while len(state["pairs"]) < upto_j:
            j = len(state["pairs"]) + 1
            a = pull()
            while True:
                cand = pull()
                if d.dist_cmp(a, cand, Fraction(j)) >= 0:
                    break
            state["partner"][a] = cand
            state["partner"][cand] = a
            state["pairs"].append((a, cand))

    extend(prebuild)

    def lookup(m):
        guard = 0
        while m not in state["partner"] and m not in state["scanned"]:
            if state["ascending"] and state["last"] is not None and state["last"] > m:
                return m  # the enumeration passed m without producing it
            extend(len(state["pairs"]) + 1)
            guard += 1
            if guard > 4096:
                raise NotUncrowdedError(
                    "witness scan cannot locate the queried point")
        return state["partner"].get(m, m)

    p = RulePermutation("unbounded-witness", lookup, lookup,
                        params={"metric": d.key})

    def witness(j):
        extend(j)
        return state["pairs"][j - 1]

    p.growth_witnesses[d.key] = witness
    return p


# --------------------------------------------------------------------------
# Equivalence.


BUILTINS = ["standard-omega", "standard-z", "sqrt", "ultra-base2", "cayley-z2",
            "cayley-f2", "discrete", "uniform-half", "partition@pairs",
            "partition@intervals-growing"]
# the rule oracle never returns when no point is far enough (uniform-half)
GROWING = [key for key in BUILTINS if key != "uniform-half"]
# distances that grow inside an intervals-growing block; sqrt and the
# intervals-growing partition metric scan the block cap for every pair; ultra-base2
# takes about 0.7 s a case
IN_BLOCK = ["standard-omega", "standard-z", "cayley-z2", "cayley-f2", "discrete",
            "partition@pairs"]


def _cycles(make, *args):
    try:
        return make(*args).cycles()
    except InsufficientSetError:
        return InsufficientSetError


@st.composite
def subsets(draw):
    points = draw(st.lists(st.integers(0, 199), unique=True, max_size=200))
    if draw(st.booleans()):
        return sorted(points)
    random.Random(draw(st.integers(0, 2**16))).shuffle(points)
    return points


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BUILTINS), subsets(), st.integers(0, 12))
def test_witness_from_a_set_matches(key, sigma, J):
    d = parse_metric(key)
    assert _cycles(unbounded_witness, d, sigma, J) == \
        _cycles(old_unbounded_witness, d, sigma, J)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(IN_BLOCK), st.integers(0, 12))
def test_stabilizer_witness_matches(key, J):
    d, A = parse_metric(key), intervals_growing()
    assert _cycles(unbounded_witness_in_stabilizer, d, A, J) == \
        _cycles(old_unbounded_witness_in_stabilizer, d, A, J)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROWING), st.integers(0, 40), st.integers(1, 7))
def test_rule_witness_matches(key, k, step):
    d = parse_metric(key)
    new = unbounded_witness_rule(d, lambda i: k + step * i)
    old = old_unbounded_witness_rule(d, lambda i: k + step * i)
    assert [new.forward(a) for a in range(3000)] == \
        [old.forward(a) for a in range(3000)]
    pairs = [new.growth_witnesses[d.key](j) for j in range(1, 9)]
    assert pairs == [old.growth_witnesses[d.key](j) for j in range(1, 9)]


# --------------------------------------------------------------------------
# The rule witness's own promises.


@pytest.mark.parametrize("sigma_fn", [lambda i: 7, lambda i: 10 - i,
                                      lambda i: [0, 1, 5, 5][i], lambda i: i - 1])
def test_a_pull_that_does_not_increase_is_refused(sigma_fn):
    p = unbounded_witness_rule(StandardOmega(), sigma_fn)
    with pytest.raises(PreconditionError):
        p.forward(100)


def test_a_step_that_raises_leaves_the_walk_unchanged():
    alone = unbounded_witness_rule(StandardOmega(), lambda i: i)
    p = unbounded_witness_rule(StandardOmega(), lambda i: i)
    with evaluation_budget(20):
        with pytest.raises(EvaluationBudgetError):
            p.forward(500)
    assert [p.forward(a) for a in range(600)] == [alone.forward(a) for a in range(600)]
