"""The built-in balls, checked against the scans they replaced.

``scan_sqrt_ball`` walks out from the center one point at a time with the
Fraction form of the sqrt comparison, and ``bfs_f2_ball`` enumerates reduced
words as strings.  The standard-omega, standard-z, ultra-base2 and
cayley-z2 balls as they stood before they counted their points first, and
the bounds as they stood before they became methods, are kept beside them;
all of them are the oracles."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symkit.metrics as metrics
from symkit.errors import NotUncrowdedError
from symkit.metrics import (
    BALL_CAP,
    BUILTIN_METRICS,
    CayleyF2,
    CayleyZ2,
    SqrtMetric,
    StandardZ,
    parse_metric,
)
from symkit.partitions import Partition
from symkit.perm import nat_to_z, z_to_nat

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


def _refuse(a, r):
    raise NotUncrowdedError("ball exceeds cap", center=a, radius=r)


def listed_omega_ball(a, r, cap):
    lo, hi = max(0, math.ceil(a - r)), math.floor(a + r)
    out = [m for m in range(lo, hi + 1) if abs(m - a) < r]
    return _refuse(a, r) if len(out) > cap else out


def listed_z_ball(a, r, cap):
    z, k = nat_to_z(a), math.ceil(r)
    out = [z_to_nat(z + dz) for dz in range(-k, k + 1) if abs(dz) < r]
    return _refuse(a, r) if len(out) > cap else sorted(out)


def listed_ultra_ball(a, r, cap):
    k = math.ceil(r) - 1  # the largest integer below r
    if k < 0:
        return []
    size = 2 ** k
    if size > cap:
        _refuse(a, r)
    return list(range(a - a % size, a - a % size + size))


def listed_z2_ball(a, r, cap):
    x, y = CayleyZ2.decode(a)
    k = max(0, math.ceil(r) - 1)
    out = []
    for dx in range(-k, k + 1):
        rem = k - abs(dx)
        for dy in range(-rem, rem + 1):
            if abs(dx) + abs(dy) < r:
                out.append(CayleyZ2.encode(x + dx, y + dy))
    return _refuse(a, r) if len(out) > cap else sorted(out)


LISTED_BALLS = {"standard-omega": listed_omega_ball, "standard-z": listed_z_ball,
                "ultra-base2": listed_ultra_ball, "cayley-z2": listed_z2_ball}


def _k(r):
    return max(0, math.ceil(r) - 1)


OLD_BOUNDS = {
    "standard-omega": lambda r: 2 * math.ceil(r) + 1,
    "standard-z": lambda r: 2 * math.ceil(r) + 1,
    "ultra-base2": lambda r: 2 ** max(0, math.ceil(r) - 1),
    "discrete": lambda r: 1,
    "cayley-z2": lambda r: 2 * _k(r) * _k(r) + 2 * _k(r) + 1,
    "cayley-f2": lambda r: 2 * 3 ** _k(r) - 1 if _k(r) > 0 else 1,
}


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


# a center up to 10^40, or a square up to 10^40, with r = s / (t (isqrt(a) + 1)):
# about 4 r sqrt(a) <= 1000 points, so the scan stays short
large_centers = st.one_of(st.integers(0, 10 ** 40),
                          st.integers(0, 10 ** 20).map(lambda t: t * t))


@settings(max_examples=200, deadline=None)
@given(large_centers, st.integers(1, 250), st.integers(1, 3), caps)
def test_sqrt_ball_at_large_centers(a, s, t, cap):
    r = Fraction(s, t * (math.isqrt(a) + 1))
    d = CountingSqrt()
    assert outcome(d.ball, a, r, cap) == outcome(scan_sqrt_ball, a, r, cap)
    assert d.calls <= 4


def test_sqrt_refusal_respects_cap():
    # the ball holds about 10^6 points; the refusal must not scan them
    d = CountingSqrt()
    with pytest.raises(NotUncrowdedError, match="ball exceeds cap"):
        d.ball(10 ** 9, Fraction(8), cap=100)
    assert d.calls <= 200


@pytest.mark.parametrize("key", sorted(LISTED_BALLS))
@settings(max_examples=150, deadline=None)
@given(a=centers, r=radii, cap=caps)
def test_counted_balls_match_the_listings(key, a, r, cap):
    assert outcome(BUILTIN_METRICS[key]().ball, a, r, cap) == \
        outcome(LISTED_BALLS[key], a, r, cap)


@pytest.mark.parametrize("key", sorted(OLD_BOUNDS))
@settings(max_examples=100, deadline=None)
@given(a=centers, r=radii)
def test_bounds_match_and_size_the_counted_balls(key, a, r):
    d = BUILTIN_METRICS[key]()
    bound = d.uniform_bound(r)
    assert bound == OLD_BOUNDS[key](r)
    if r > 0 and key in ("cayley-z2", "cayley-f2", "ultra-base2"):
        assert len(d.ball(a, r, cap=bound)) == bound


def _listing(*args):
    raise AssertionError("a point was listed")


def test_refusals_list_no_point(monkeypatch):
    monkeypatch.setattr(CayleyZ2, "encode", staticmethod(_listing))
    with pytest.raises(NotUncrowdedError, match="ball exceeds cap"):
        CayleyZ2().ball(0, 300)  # 179,401 points
    monkeypatch.setattr(metrics, "z_to_nat", _listing)
    with pytest.raises(NotUncrowdedError, match="ball exceeds cap"):
        StandardZ().ball(0, 10 ** 7)
    monkeypatch.setattr(Partition, "block_members", _listing)
    with pytest.raises(NotUncrowdedError, match="ball exceeds cap"):
        parse_metric("partition@spread").ball(10 ** 16, 2)  # 141,421,352 points


@pytest.mark.parametrize("a", [0, 1, 4, 5, 17, 161, 10 ** 6])
def test_f2_ball_sizes(a):
    d = CayleyF2()
    for k in range(5):
        ball = d.ball(a, Fraction(k + 1))
        assert len(ball) == 2 * 3 ** k - 1
        assert all(d.dist(a, m) <= k for m in ball)
