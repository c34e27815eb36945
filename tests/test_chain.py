"""The stabilizer chain behind ``gens:[...]`` descriptors, checked against
listing every group element."""
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkit.chain import StabilizerChain
from symkit.classifier import (
    check_evidence,
    classify_group,
    orbit,
    parse_descriptor,
)


def closure_elements(gens):
    """Every element of the group gens generate, as image tuples on the
    sorted support: the brute-force oracle."""
    points = sorted({a for g in gens for a in g.moved_points()})
    idx = {a: i for i, a in enumerate(points)}
    tables = [tuple(idx[g.forward(a)] for a in points) for g in gens]
    ident = tuple(range(len(points)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        state = frontier.pop()
        for t in tables:
            new = tuple(t[s] for s in state)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return points, sorted(seen)


def oracle_orbit(gens, gamma, alpha):
    points, elements = closure_elements(gens)
    if alpha not in points:
        return [alpha]
    idx = {a: i for i, a in enumerate(points)}
    pinned = [idx[p] for p in gamma if p in idx]
    return sorted({points[e[idx[alpha]]] for e in elements
                   if all(e[p] == p for p in pinned)})


def _cycles_text(cycles):
    return "cycles:" + "".join("(" + " ".join(map(str, c)) + ")"
                               for c in cycles)


def _cycles(mapping):
    out, seen = [], set()
    for start in sorted(mapping):
        if start in seen or mapping[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        while mapping[cyc[-1]] != start:
            cyc.append(mapping[cyc[-1]])
            seen.add(cyc[-1])
        out.append(cyc)
    return out


@st.composite
def generator_sets(draw):
    """A gens: descriptor of at most three generators (identities allowed)
    moving points of a set of at most 7 points out of [0, 12)."""
    support = draw(st.lists(st.integers(0, 11), max_size=7, unique=True))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        images = draw(st.permutations(support))
        gens.append(_cycles_text(_cycles(dict(zip(support, images)))))
    return "gens:[" + ",".join(gens) + "]"


@settings(deadline=None, max_examples=150)
@given(generator_sets(), st.lists(st.integers(0, 11), max_size=4),
       st.integers(0, 11))
def test_chain_matches_enumeration(text, gamma, alpha):
    desc = parse_descriptor(text)
    points, elements = closure_elements(desc.gens)
    label = classify_group(desc)
    assert label.samples["order"] == len(elements)
    if desc.gens:
        assert label.samples["support"] == points == label.gamma
    rep = orbit(desc, gamma, alpha)
    assert rep.kind == "full"
    assert rep.points == oracle_orbit(desc.gens, gamma, alpha)
    assert rep.size == len(rep.points)


@pytest.mark.parametrize("text,gamma,alpha,order,points", [
    ("gens:[]", [], 3, 1, [3]),
    ("gens:[cycles:()]", [0], 0, 1, [0]),
    ("gens:[cycles:(),cycles:(1 2 3)]", [], 2, 3, [1, 2, 3]),
    ("gens:[cycles:(0 1 2),cycles:(2 3)]", [7, 9], 1, 24, [0, 1, 2, 3]),
    ("gens:[cycles:(0 1 2),cycles:(2 3)]", [3, 8], 0, 24, [0, 1, 2]),
    ("gens:[cycles:(0 1 2),cycles:(2 3)]", [0], 5, 24, [5]),
    ("gens:[cycles:(0 1)(2 3)]", [2], 0, 2, [0]),
], ids=["empty", "identity", "identity-and-3-cycle", "gamma-outside",
        "gamma-mixed", "alpha-outside", "pinned-by-product"])
def test_edge_cases(text, gamma, alpha, order, points):
    desc = parse_descriptor(text)
    assert classify_group(desc).samples["order"] == order
    assert orbit(desc, gamma, alpha).points == points
    assert points == oracle_orbit(desc.gens, gamma, alpha)


def test_base_prefix_orbits():
    # the dihedral group of the square, vertices 0..3
    rot, flip = (1, 2, 3, 0), (0, 3, 2, 1)
    chain = StabilizerChain(4, [rot, flip], base_prefix=[2])
    assert chain.base[0] == 2 and chain.order == 8
    assert sorted(chain.orbit(1, 1)) == [1, 3]
    assert chain.orbit(0, 1) == [0]
    assert StabilizerChain(4, [], base_prefix=[0, 1]).order == 1


def _sym_descriptor(n):
    """An n-cycle and a transposition of two adjacent points of it, on a
    support spread out of order."""
    support = [(7 * i + 3) % (4 * n) for i in range(n)]
    return (f"gens:[{_cycles_text([support])},"
            f"{_cycles_text([support[:2]])}]"), support


def test_large_symmetric_support():
    text, support = _sym_descriptor(20)
    label = classify_group(parse_descriptor(text))
    assert label.samples["order"] == math.factorial(20)
    assert label.samples["support"] == sorted(support)
    assert check_evidence(text, label.evidence())
    a, b, alpha = support[4], support[11], support[0]
    rep = orbit(parse_descriptor(f"fix({text};{a},{b})"), [], alpha)
    assert rep.kind == "full"
    assert rep.points == sorted(set(support) - {a, b})


def test_far_moved_points_are_cheap():
    # the support is read off the cycles, not scanned up to the largest point
    text = "gens:[cycles:(0 3000000)]"
    start = time.perf_counter()
    label = classify_group(parse_descriptor(text))
    assert check_evidence(text, label.evidence())
    assert time.perf_counter() - start < 1.0
    assert label.samples == {"order": 2, "support": [0, 3000000]}
