"""The sqrt and cayley-f2 balls, checked against the scans they replaced.

``scan_sqrt_ball`` walks out from the center one point at a time with the
Fraction form of the sqrt comparison, and ``bfs_f2_ball`` enumerates reduced
words as strings; both are kept here as the oracles."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.errors import NotUncrowdedError
from symkit.metrics import BALL_CAP, CayleyF2, SqrtMetric

# --------------------------------------------------------------------------
# Oracles.


def sqrt_cmp(a, b, r):
    """|sqrt(a) - sqrt(b)| against r, in Fractions."""
    r = Fraction(r)
    if a == b:
        return (0 > r) - (0 < r)
    if r <= 0:
        return 1
    lhs = Fraction(a) + b - r * r
    if lhs < 0:
        return -1
    rhs = 4 * Fraction(a) * b
    return (lhs * lhs > rhs) - (lhs * lhs < rhs)


def scan_sqrt_ball(a, r, cap):
    r = Fraction(r)
    if r <= 0:
        return []
    out = [a]
    m = a - 1
    while m >= 0 and sqrt_cmp(a, m, r) < 0:
        out.append(m)
        m -= 1
    m = a + 1
    while sqrt_cmp(a, m, r) < 0:
        out.append(m)
        m += 1
        if len(out) > cap:
            raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
    if len(out) > cap:
        raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
    return sorted(out)


LETTERS = "aAbB"
INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


def index_to_word(m):
    if m == 0:
        return ""
    length, offset, count = 1, 1, 4
    while m >= offset + count:
        offset += count
        count *= 3
        length += 1
    rank = m - offset
    word = LETTERS[rank // 3 ** (length - 1)]
    rank %= 3 ** (length - 1)
    for pos in range(length - 1):
        allowed = [c for c in LETTERS if c != INV[word[-1]]]
        step = 3 ** (length - 2 - pos)
        word += allowed[rank // step]
        rank %= step
    return word


def word_to_index(w):
    if not w:
        return 0
    offset, count = 1, 4
    for _ in range(len(w) - 1):
        offset += count
        count *= 3
    rank = LETTERS.index(w[0]) * 3 ** (len(w) - 1)
    for pos in range(1, len(w)):
        allowed = [c for c in LETTERS if c != INV[w[pos - 1]]]
        rank += allowed.index(w[pos]) * 3 ** (len(w) - 1 - pos)
    return offset + rank


def reduce(w):
    out = []
    for c in w:
        if out and out[-1] == INV[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def f2_dist(a, b):
    inverse = "".join(INV[c] for c in reversed(index_to_word(a)))
    return len(reduce(inverse + index_to_word(b)))


def bfs_f2_ball(a, r, cap):
    k = max(0, math.ceil(r) - 1)
    w = index_to_word(a)
    out = []
    frontier = [""]
    for _ in range(k + 1):
        next_frontier = []
        for x in frontier:
            if len(x) < r:
                out.append(word_to_index(reduce(w + x)))
            if len(x) < k:
                allowed = LETTERS if not x else [
                    c for c in LETTERS if c != INV[x[-1]]]
                next_frontier.extend(x + c for c in allowed)
        frontier = next_frontier
    if len(out) > cap:
        raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)
    return sorted(set(out))


def outcome(ball, a, r, cap):
    """The ball, or the refusal with its message, center and radius."""
    try:
        return ball(a, r, cap)
    except NotUncrowdedError as e:
        return ("refused", str(e), e.center, e.radius)


# --------------------------------------------------------------------------
# Properties.

centers = st.one_of(st.integers(0, 2000), st.integers(0, 10 ** 6))
# integral and fractional radii up to 7: a cayley-f2 ball of radius 7 holds
# 1457 words, and the oracle lists them all before it looks at the cap
radii = st.one_of(st.integers(-2, 7).map(Fraction),
                  st.fractions(-2, 7, max_denominator=4))
caps = st.one_of(st.integers(0, 600), st.just(BALL_CAP))


@settings(max_examples=150, deadline=None)
@given(centers, radii, caps)
def test_sqrt_ball_matches_scan(a, r, cap):
    assert outcome(SqrtMetric().ball, a, r, cap) == \
        outcome(scan_sqrt_ball, a, r, cap)


@settings(max_examples=150, deadline=None)
@given(centers, radii, caps)
def test_f2_ball_matches_bfs(a, r, cap):
    assert outcome(CayleyF2().ball, a, r, cap) == \
        outcome(bfs_f2_ball, a, r, cap)


@settings(max_examples=300, deadline=None)
@given(centers, centers)
def test_f2_dist_matches_words(a, b):
    assert CayleyF2().dist(a, b) == f2_dist(a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9), radii)
def test_sqrt_cmp_matches_fractions(a, b, r):
    assert SqrtMetric().dist_cmp(a, b, r) == sqrt_cmp(a, b, r)


class CountingSqrt(SqrtMetric):
    def __init__(self):
        self.calls = 0

    def dist_cmp(self, a, b, r):
        self.calls += 1
        return super().dist_cmp(a, b, r)


def test_sqrt_refusal_respects_cap():
    # the ball holds about 10^6 points; the refusal must not scan them
    d = CountingSqrt()
    with pytest.raises(NotUncrowdedError, match="ball exceeds cap"):
        d.ball(10 ** 9, Fraction(8), cap=100)
    assert d.calls <= 200


@pytest.mark.parametrize("a", [0, 1, 4, 5, 17, 161, 10 ** 6])
def test_f2_ball_sizes(a):
    d = CayleyF2()
    for k in range(5):
        ball = d.ball(a, Fraction(k + 1))
        assert len(ball) == 2 * 3 ** k - 1
        assert all(d.dist(a, m) <= k for m in ball)
