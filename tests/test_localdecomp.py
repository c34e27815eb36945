import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.errors import PreconditionError
from symkit.localdecomp import _PairedExchanger, breakpoints, decompose_local, is_local
from symkit.metrics import factor_fn_omega
from symkit.perm import (
    FiniteSupportPermutation,
    WordPermutation,
    evaluation_budget,
    identity,
    rule,
    word,
)


def cyc(*cycles):
    return FiniteSupportPermutation.from_cycles(list(cycles))


def random_finite(rng, span, moves):
    pts = rng.sample(range(span), moves)
    img = pts[:]
    rng.shuffle(img)
    return FiniteSupportPermutation({a: b for a, b in zip(pts, img) if a != b})


class TestBreakpoints:
    def test_identity(self):
        bp = breakpoints(identity(), 8)
        assert [bp.value(i) for i in range(8)] == list(range(8))

    def test_three_cycle(self):
        bp = breakpoints(cyc([0, 1, 2]), 6)
        assert [bp.value(i) for i in range(6)] == [0, 1, 3, 4, 5, 6]

    def test_containment_invariant(self):
        rng = random.Random(17)
        for _ in range(10):
            f = random_finite(rng, 80, 20)
            bp = breakpoints(f, 10)
            for i in range(1, 10):
                hi = bp.value(i)
                for x in range(bp.value(i - 1)):
                    assert f.forward(x) < hi
                    assert f.backward(x) < hi

    def test_crossing_balance(self):
        def crossing_counts(f, bp, i):
            """Elements moved up past a(i) - 1/2 from S_{i-1}, and down into it."""
            lo, mid = bp.interval(i - 1)
            _, hi = bp.interval(i)
            ups = sum(1 for x in range(lo, mid) if f.forward(x) >= mid)
            downs = sum(1 for x in range(mid, hi) if f.forward(x) < mid)
            return ups, downs

        rng = random.Random(18)
        for _ in range(10):
            f = random_finite(rng, 60, 16)
            bp = breakpoints(f, 8)
            for i in range(1, 8):
                ups, downs = crossing_counts(f, bp, i)
                assert ups == downs


class TestDecompose:
    def test_identity(self):
        g, h = decompose_local(identity())
        assert all(g.forward(a) == a and h.forward(a) == a for a in range(30))

    def test_frozen_three_cycle(self):
        g, h = decompose_local(cyc([0, 1, 2]))
        assert {a: g.forward(a) for a in range(5) if g.forward(a) != a} == \
            {0: 2, 2: 0}
        assert {a: h.forward(a) for a in range(5) if h.forward(a) != a} == \
            {1: 2, 2: 1}

    def test_random_products_and_locality(self):
        rng = random.Random(19)
        for _ in range(100):
            f = random_finite(rng, 200, 24)
            g, h = decompose_local(f, count=10)
            assert all(h.forward(g.forward(a)) == f.forward(a)
                       for a in range(400))
            bp = g.bp
            # g preserves [a(2i), a(2i+2)); h preserves [a(2i-1), a(2i+1))
            for a in range(300):
                i = bp.index_of(a)
                ga = g.forward(a)
                assert bp.index_of(ga) // 2 == i // 2
                ha = h.forward(a)
                assert (bp.index_of(ha) + 1) // 2 == (i + 1) // 2

    def test_round_trip_local_factors(self):
        rng = random.Random(20)
        for _ in range(20):
            f = random_finite(rng, 120, 18)
            g, h = decompose_local(f, count=8)
            g2, h2 = decompose_local(
                FiniteSupportPermutation(
                    {a: h.forward(g.forward(a)) for a in range(300)
                     if h.forward(g.forward(a)) != a}), count=8)
            assert is_local(g2, 400).answer == "yes"
            assert is_local(h2, 400).answer == "yes"

    def test_rule_based_bounded(self):
        f = rule("block-rotate", size=7)
        g, h = decompose_local(f, count=6)
        assert all(h.forward(g.forward(a)) == f.forward(a) for a in range(300))


class TestIsLocal:
    def test_identity(self):
        rep = is_local(identity(), 100)
        assert rep.answer == "yes"
        assert rep.invariant_prefixes[:3] == [1, 2, 3]

    def test_finite_support(self):
        rep = is_local(cyc([3, 40]), 100)
        assert rep.answer == "yes"
        assert 41 in rep.invariant_prefixes

    def test_embedded_shift_not_local(self):
        rep = is_local(rule("shift-z"), 400)
        assert rep.answer == "no-at-budget"
        assert rep.stuck_at == 0

    def test_empty_probe(self):
        assert is_local(identity(), 0).answer == "unknown"

    def test_persisting_prefixes_without_certificate_unknown(self):
        rep = is_local(rule("swap-pairs"), 400)
        assert rep.answer == "unknown"
        assert rep.invariant_prefixes[-1] == 400


# --------------------------------------------------------------------------
# The fixed region above support_bound, against the unshortcut pairing.


def _unshortcut(g, alpha):
    """The local factor's value through its block's crosser pairing."""
    return g._pairing(g.bp.index_of(alpha) // 2).get(alpha, alpha)


@st.composite
def finite_perms(draw):
    span = draw(st.integers(1, 300))
    pts = draw(st.lists(st.integers(0, span - 1), unique=True, max_size=40))
    img = draw(st.permutations(pts))
    return FiniteSupportPermutation(dict(zip(pts, img)))


@settings(max_examples=120, deadline=None)
@given(finite_perms(), st.booleans())
def test_local_factors_fix_the_region_above_support_bound(f, by_norm):
    g, h = factor_fn_omega(f) if by_norm else decompose_local(f, 8)
    for p in (g, h):
        bound = p.support_bound
        assert bound is not None and bound >= f.support_bound
        assert all(p.forward(a) == a and p.backward(a) == a
                   for a in range(bound, 2 * bound + 64))
    if f.support_bound == 0:
        return  # factor_fn_omega returns two identities
    for a in range(2 * g.support_bound):
        pa = _unshortcut(g, a)
        assert g.forward(a) == g.backward(a) == pa
        assert h.forward(a) == f.forward(pa)


def test_decompose_step_count():
    """Primitive steps for a finite decompose_local and its 1000-point h.g
    window: 3,998 before the local factor returned points at or above its
    support bound unchanged, 1,606 with it, 377 with blocks paired on
    request.  Settled when built, the factors cost the breakpoints' two steps
    per moved point and the pairing's one, and the window none."""
    f = random_finite(random.Random(21), 200, 60)
    moved = len(f.moved_points())
    with evaluation_budget(10**9) as m:
        g, h = decompose_local(f, 8)
        built = m.spent
        hg = [h.forward(g.forward(a)) for a in range(1000)]
        nested = [word(g, h).forward(a) for a in range(1000)]  # through _fwd
    assert hg == nested == [f.forward(a) for a in range(1000)]
    assert (moved, built) == (59, 3 * 59)
    assert m.spent == built


certified = finite_perms() | st.lists(finite_perms() | st.just(rule("identity")),
                                      min_size=1, max_size=3).map(lambda fs: word(*fs))


@settings(max_examples=150, deadline=None)
@given(certified, st.booleans())
def test_settled_factors_match_the_pairing_on_request(f, by_norm):
    """A certified f's factors, settled when built, give the images of the
    factors that pair blocks on request on the same breakpoints: below
    2 support_bound + 64 both ways, and far points fixed, free of charge."""
    g, h = factor_fn_omega(f) if by_norm else decompose_local(f, 8)
    if not isinstance(g, _PairedExchanger):
        return  # a zero norm: factor_fn_omega returns two identities
    lazy_g = _PairedExchanger(f, g.bp)
    lazy_h = WordPermutation([lazy_g, f])
    bound = g.support_bound
    assert h.support_bound == bound
    for p, q in ((g, lazy_g), (h, lazy_h)):
        for a in range(2 * bound + 64):
            assert (p.forward(a), p.backward(a)) == (q.forward(a), q.backward(a))
    with evaluation_budget(10**9) as m:
        far = [bound + 10**6 + k for k in range(5)] + [10**18]
        assert [(g.forward(a), h.forward(a), g.backward(a), h.backward(a))
                for a in far] == [(a,) * 4 for a in far]
    assert m.spent == 0


@pytest.mark.parametrize("cycles,message", [
    ([[0, 5]], "boundary 1: 1 up vs 0 down"),
    ([[1, 3, 2], [10, 11]], "boundary 3: 0 up vs 1 down")])
def test_unbalanced_certified_pairing_raises_when_built(cycles, message):
    """Width 1 is below these norms, so some boundary has more crossers one
    way than the other; the pairing on request raised this on the first
    evaluation there."""
    with pytest.raises(PreconditionError, match=rf"^crossing counts differ at {message}$"):
        factor_fn_omega(cyc(*cycles), bound=1)
