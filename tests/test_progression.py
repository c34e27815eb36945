"""The first free members of an arithmetic progression, and a partition
block declared as one, against the point-by-point scans they replace."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.classifier import PartitionStab, discreteness, orbit
from symkit.errors import EvaluationBudgetError, ProfileViolationError
from symkit.partitions import (
    BUILTIN_PARTITIONS,
    HasInfiniteBlock,
    evens_block,
    explicit,
    progression_outside,
)
from symkit.perm import _charge, evaluation_budget, metered
from symkit.trees import FullSymmetricOracle


def scan_outside(start, step, avoid, n):
    """The oracle: test every member of the progression in turn."""
    return list(itertools.islice(itertools.filterfalse(
        avoid.__contains__, itertools.count(start, step)), n))


def scan_free_points(A, block_id, gamma, n):
    """The oracle: the metered scan free_points ran before a block could
    declare a progression, calling block_of on every natural."""
    block_of, out, m = A._block_of, [], 0
    with metered() as meter:
        stop = meter.limit - meter.spent
        while len(out) < n:
            if m >= stop:
                meter.spent += m
                _charge("free-points")
            if m not in gamma and block_of(m) == block_id:
                out.append(m)
            m += 1
        meter.spent += m
    return out


def budgeted(fn, *args, limit, spent=0):
    """fn's answer and the meter's spent steps, or the budget error's
    limit, spent and form, under a fresh budget with ``spent`` already used."""
    with evaluation_budget(limit) as meter:
        meter.spent = spent
        try:
            return fn(*args), meter.spent
        except EvaluationBudgetError as err:
            return ("budget", err.limit, err.spent, err.form), meter.spent


@st.composite
def progressions(draw):
    start = draw(st.integers(0, 10 ** 6))
    step = draw(st.integers(1, 50))
    near = st.integers(0, 3000).map(lambda i: start + i * step)  # members
    anywhere = st.integers(0, 10 ** 12)
    avoid = draw(st.sets(near | anywhere | st.integers(-50, 10 ** 6), max_size=400))
    n = draw(st.integers(0, 300) | st.integers(0, 65536))
    return start, step, avoid, n


@settings(max_examples=150, deadline=None)
@given(progressions())
def test_progression_outside_matches_the_scan(case):
    start, step, avoid, n = case
    assert progression_outside(start, step, avoid, n) == \
        scan_outside(start, step, avoid, n)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 200) | st.integers(0, 10 ** 12), max_size=100),
       st.integers(0, 5000), st.integers(0, 50))
def test_full_symmetric_orbits_list_the_least_free_naturals(gamma, n, alpha):
    got = FullSymmetricOracle().orbit(frozenset(gamma), alpha, n)
    if alpha in gamma:
        assert (got.kind, got.points) == ("full", [alpha])
    else:
        assert (got.kind, got.points) == ("atleast", scan_outside(0, 1, gamma, n))


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 80) | st.integers(0, 10 ** 12), max_size=60),
       st.integers(0, 100),
       st.integers(1, 400) | st.sampled_from([1, 2, 3, 10 ** 6]),
       st.integers(0, 30))
def test_declared_block_charges_as_the_scan(gamma, n, limit, spent):
    # the list, the steps spent and any budget error agree with the scan
    A = evens_block()
    assert budgeted(A.free_points, 0, gamma, n, limit=limit, spent=spent) == \
        budgeted(scan_free_points, A, 0, gamma, n, limit=limit, spent=spent)


def test_declared_block_at_the_orbit_ceiling():
    A, gamma = evens_block(), set(range(0, 4096, 3))
    assert budgeted(A.free_points, 0, gamma, 65536, limit=10 ** 6) == \
        budgeted(scan_free_points, A, 0, gamma, 65536, limit=10 ** 6)


@pytest.mark.parametrize("key", [key for key, make in BUILTIN_PARTITIONS.items()
                                 if getattr(make().profile, "step", None)])
def test_declared_progression_is_the_block(key):
    A = BUILTIN_PARTITIONS[key]()
    p = A.profile
    assert isinstance(p, HasInfiniteBlock) and A.block_of(p.block) == p.block
    for a in range(10 ** 5):
        assert (A.block_of(a) == p.block) == \
            (a >= p.block and (a - p.block) % p.step == 0)


def test_undeclared_block_keeps_the_scan():
    # with no step the block is scanned through block_of, as a liar needs
    liar = evens_block()
    liar.profile = HasInfiniteBlock(0)
    calls = []
    block_of = liar._block_of
    liar._block_of = lambda a: calls.append(a) or block_of(a)
    assert liar.free_points(0, {0, 4}, 3) == [2, 6, 8]
    assert calls == [1, 2, 3, 5, 6, 7, 8]  # each free point up to the last


def test_declared_block_spot_verifies():
    evens_block().spot_verify(10 ** 4)


def test_false_step_refused_by_spot_verify():
    liar = explicit([[0]], HasInfiniteBlock(0, step=2), key="liar")
    with pytest.raises(ProfileViolationError, match="point 2 breaks the step"):
        liar.spot_verify(10)


@pytest.mark.parametrize("step", [None, 2])
def test_false_step_runs_out_of_budget(step):
    # block_of denies the step's last listed point, so the block is scanned as
    # an undeclared one: the liar stops at the meter, not at non-members
    liar = explicit([[0]], HasInfiniteBlock(0, step=step), key="liar")
    for probe in (lambda g: orbit(g, [], 0), discreteness):
        with pytest.raises(EvaluationBudgetError) as err:
            probe(PartitionStab(liar, liar.key))
        assert err.value.form == "free-points"
