"""Independent reference answers for every query class of the benchmark.

Nothing here imports symkit.  Each answer comes from a closed form, a
brute-force scan or a plain search written for the benchmark, so a wrong
library answer cannot agree with its reference by sharing code with it.
Every function here runs outside the timed query spans.
"""
from __future__ import annotations

import bisect
import heapq
import math
from functools import reduce

ORBIT_BUDGET = 4096   # classifier.orbit's default budget
FIX_WINDOW = 256      # the classifier's fix(...) window: Budgets.samples * 4


# -- the integers coded in the naturals: z >= 0 -> 2z, z < 0 -> -2z - 1 ------

def nat_to_z(m):
    return m // 2 if m % 2 == 0 else -(m + 1) // 2


def z_to_nat(z):
    return 2 * z if z >= 0 else -2 * z - 1


# -- permutations as plain functions -----------------------------------------

def swap_pairs(m):
    return m ^ 1


def shift_z(m, k=1):
    return z_to_nat(nat_to_z(m) + k)


def block_rotate(m, size, step=1):
    return m - m % size + (m % size + step) % size


def finite(mapping):
    return lambda m: mapping.get(m, m)


def inverse_mapping(mapping):
    return {b: a for a, b in mapping.items()}


def compose(mappings):
    """The finite permutation that applies ``mappings`` left to right."""
    points = set()
    for m in mappings:
        points.update(m)
    out = {}
    for a in points:
        b = a
        for m in mappings:
            b = m.get(b, b)
        if b != a:
            out[a] = b
    return out


def cycles_of(mapping):
    seen, out = set(), []
    for start in sorted(mapping):
        if start in seen:
            continue
        cyc, b = [], start
        while b not in seen:
            seen.add(b)
            cyc.append(b)
            b = mapping[b]
        out.append(cyc)
    return out


def is_even(mapping):
    return sum(len(c) - 1 for c in cycles_of(mapping)) % 2 == 0


# -- partitions: block id (its least member) and members ---------------------

def tri(k):
    return k * (k + 1) // 2


def tri_root(a):
    """The k with tri(k) <= a < tri(k + 1)."""
    k = (math.isqrt(8 * a + 1) - 1) // 2
    while tri(k + 1) <= a:
        k += 1
    while tri(k) > a:
        k -= 1
    return k


def _spread_segment(a):
    """Segment k = [k(k+15)/2, (k+1)(k+16)/2) holds a block of size 4+k, then
    four singletons."""
    k = max(0, (math.isqrt(225 + 8 * a) - 15) // 2)
    while (k + 1) * (k + 16) // 2 <= a:
        k += 1
    while k * (k + 15) // 2 > a:
        k -= 1
    return k, k * (k + 15) // 2


def _spread_block(a):
    k, lo = _spread_segment(a)
    return lo if a < lo + 4 + k else a


def _spread_members(b):
    k, lo = _spread_segment(b)
    return list(range(lo, lo + 4 + k)) if b == lo else [b]


# name -> (block_of, members, profile kind); the infinite block of
# evens-block (id 0) has no member list, so members() serves its singletons
PARTITIONS = {
    "pairs": (lambda a: a - a % 2, lambda b: [b, b + 1], "bounded"),
    "pairs-shifted": (lambda a: 0 if a == 0 else a - 1 + a % 2,
                      lambda b: [0] if b == 0 else [b, b + 1], "bounded"),
    "a0": (lambda a: a - 1 if a % 4 == 1 else a,
           lambda b: [b, b + 1] if b % 4 == 0 else [b], "bounded"),
    "z-pair-blocks": (lambda a: a - a % 3 if a % 3 < 2 else a,
                      lambda b: [b] if b % 3 == 2 else [b, b + 1], "bounded"),
    "singletons": (lambda a: a, lambda b: [b], "bounded"),
    "intervals-growing": (lambda a: tri(tri_root(a)),
                          lambda b: list(range(b, tri(tri_root(b) + 1))),
                          "unbounded"),
    "spread": (_spread_block, _spread_members, "unbounded"),
    "evens-block": (lambda a: 0 if a % 2 == 0 else a, lambda b: [b], "infinite"),
}

STAB_LABEL = {
    "pairs": "C_Q", "pairs-shifted": "C_Q", "a0": "C_Q", "z-pair-blocks": "C_Q",
    "singletons": "C_1", "intervals-growing": "C_P", "spread": "C_P",
    "evens-block": "C_S",
}


def block_members_of(part, a):
    block_of, members, _ = PARTITIONS[part]
    return members(block_of(a))


# -- lazy permutations: local decomposition, trees, factorizations -----------

def breakpoints(f, finv, upto):
    """Least-choice breakpoints: a(i) is the least value above a(i-1) whose
    initial segment holds every image and preimage of [0, a(i-1))."""
    a, top, x = [0], 0, 0
    while a[-1] <= upto:
        prev = a[-1]
        while x < prev:
            top = max(top, f(x) + 1, finv(x) + 1)
            x += 1
        a.append(max(prev + 1, top))
    return a


def check_decompose(f, finv, window, answer):
    """f = g.h on the window, g keeps each [a(2i), a(2i+2)), h keeps each
    [a(2i-1), a(2i+1)), and the library's breakpoints are the least ones."""
    f_vals, g_vals, hg_vals, lib_bp = answer
    want = [f(x) for x in range(window)]
    if f_vals != want or hg_vals != want:
        return False
    bp = breakpoints(f, finv, max(window, max(g_vals), max(hg_vals)) + 1)
    k = min(len(bp), len(lib_bp))
    if k < 2 or lib_bp[:k] != bp[:k]:
        return False

    def index(m):
        return bisect.bisect_right(bp, m) - 1

    for x in range(window):
        gx, hx = g_vals[x], hg_vals[x]
        if index(gx) // 2 != index(x) // 2:
            return False
        if (index(hx) + 1) // 2 != (index(gx) + 1) // 2:
            return False
    return True


def check_tree(depth, choices, answer):
    """The binary tree over the stabilizer of a0 pivots on the pairs
    {4i, 4i+1}; a branch limit swaps exactly the pairs its bits select."""
    alphas, betas, nodes, images = answer
    if alphas != [4 * i for i in range(depth)]:
        return False
    if betas != [4 * i + 1 for i in range(depth)] or nodes != 2 ** (depth + 1) - 1:
        return False
    for bits, got in zip(choices, images):
        swap = {}
        for i, bit in enumerate(bits):
            if bit:
                swap[4 * i], swap[4 * i + 1] = 4 * i + 1, 4 * i
        if got != [swap.get(x, x) for x in range(len(got))]:
            return False
    return len(images) == len(choices)


def check_factor(mapping, window, answer):
    """p.q = h on the window, p moves only points of even-indexed blocks of
    intervals-growing, q only odd-indexed ones, and both conjugates keep A."""
    p_vals, qp_vals, memberships = answer
    if qp_vals != [mapping.get(x, x) for x in range(window)]:
        return False
    for x in range(window):
        if p_vals[x] != x and tri_root(x) % 2 != 0:
            return False
        px = p_vals[x]
        if qp_vals[x] != px and tri_root(px) % 2 != 1:
            return False
    return memberships == ["yes", "yes"]


def check_norm_factor(mapping, window, answer):
    """The norm is the largest displacement, b1.b2 = f, b1 keeps each
    [2ni, 2n(i+1)) and b2 each [n(2i-1), n(2i+1))."""
    certificate, bound, b1_vals, b2_vals = answer
    n = max((abs(b - a) for a, b in mapping.items()), default=0)
    if certificate != "finite" or bound != n:
        return False
    if b2_vals != [mapping.get(x, x) for x in range(window)]:
        return False
    if n == 0:
        return b1_vals == list(range(window))
    for x in range(window):
        y = b1_vals[x]
        if y // (2 * n) != x // (2 * n) or (b2_vals[x] + n) // (2 * n) != (y + n) // (2 * n):
            return False
    return True


# -- refined metrics: a plain best-first search ------------------------------

def _base_edges(base, x, radius):
    if base == "standard-omega":
        return [(y, abs(x - y)) for y in range(max(0, x - radius + 1), x + radius)]
    return [(y, 0 if y == x else 1) for y in block_members_of(base, x)]


def refined_distance(base, moves, a, b, radius):
    """("exact", d) when the refined distance d is below radius, else
    ("atleast", radius).  ``moves`` are (forward, backward) function pairs;
    each application costs 1."""
    if a == b:
        return "exact", 0
    best = {a: 0}
    heap = [(0, a)]
    done = set()
    while heap:
        v, x = heapq.heappop(heap)
        if x in done:
            continue
        if x == b:
            return "exact", v
        done.add(x)
        steps = _base_edges(base, x, radius)
        for fwd, bwd in moves:
            steps.append((fwd(x), 1))
            steps.append((bwd(x), 1))
        for y, w in steps:
            w += v
            if w < radius and w < best.get(y, radius):
                best[y] = w
                heapq.heappush(heap, (w, y))
    return "atleast", radius


# -- balls of the built-in metrics -------------------------------------------

def _sqrt_inside(c, m, r):
    """|sqrt(m) - sqrt(c)| < r in exact integer arithmetic."""
    upper = m - c - r * r   # sqrt(m) < sqrt(c) + r
    if upper >= 0 and upper * upper >= 4 * r * r * c:
        return False
    if c < r * r:           # sqrt(c) - r < 0 <= sqrt(m)
        return True
    lower = c + r * r - m   # sqrt(m) > sqrt(c) - r
    return lower < 0 or lower * lower < 4 * r * r * c


def _z2_decode(m):
    w = (math.isqrt(8 * m + 1) - 1) // 2
    v = m - w * (w + 1) // 2
    return nat_to_z(w - v), nat_to_z(v)


def _z2_encode(x, y):
    u, v = z_to_nat(x), z_to_nat(y)
    return (u + v) * (u + v + 1) // 2 + v


_F2_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _f2_word(m):
    """Reduced words listed by length, then by rank over a, A, b, B with the
    letter after each position drawn from the three that do not cancel it."""
    if m == 0:
        return ""
    length, first = 1, 1
    while m >= first + 4 * 3 ** (length - 1):
        first += 4 * 3 ** (length - 1)
        length += 1
    rank = m - first
    digits = []
    for _ in range(length - 1):
        rank, d = divmod(rank, 3)
        digits.append(d)
    word = "aAbB"[rank]
    for d in reversed(digits):
        word += [c for c in "aAbB" if c != _F2_INV[word[-1]]][d]
    return word


def _f2_distance(m, n):
    u, v = _f2_word(m), _f2_word(n)
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return len(u) + len(v) - 2 * k


def check_ball(key, c, r, points):
    """The open ball B(c, r) for integer r >= 1, from each metric's closed form
    (for cayley-f2: its size, distinctness and every member's distance)."""
    if key == "standard-omega":
        return points == list(range(max(0, c - r + 1), c + r))
    if key == "standard-z":
        z = nat_to_z(c)
        return points == sorted(z_to_nat(z + d) for d in range(1 - r, r))
    if key == "sqrt":
        lo = max(0, int((math.sqrt(c) - r) ** 2) - 2) if math.sqrt(c) > r else 0
        while not _sqrt_inside(c, lo, r):
            lo += 1
        hi = int((math.sqrt(c) + r) ** 2) + 2
        while not _sqrt_inside(c, hi, r):
            hi -= 1
        return points == list(range(lo, hi + 1))
    if key == "ultra-base2":
        size = 2 ** (r - 1)
        return points == list(range(c - c % size, c - c % size + size))
    if key == "cayley-z2":
        x, y = _z2_decode(c)
        return points == sorted(_z2_encode(x + dx, y + dy)
                                for dx in range(1 - r, r)
                                for dy in range(abs(dx) + 1 - r, r - abs(dx)))
    if key == "cayley-f2":
        if len(points) != 2 * 3 ** (r - 1) - 1 or len(set(points)) != len(points):
            return False
        return all(_f2_distance(c, p) < r for p in points)
    if key == "discrete":
        return points == [c]
    if key == "partition":
        return points == ([c] if r <= 1 else block_members_of("intervals-growing", c))
    raise ValueError(f"no ball reference for {key!r}")


# -- classification ----------------------------------------------------------

def lcm(values):
    return reduce(lambda x, y: x * y // math.gcd(x, y), values, 1)


def group_order(family, cycles):
    """``sym``: an n-cycle and a transposition of two of its adjacent points
    generate the symmetric group (order n!); ``cyclic``/``disjoint``: one
    generator whose order is the lcm of its cycle lengths."""
    if family == "sym":
        return math.factorial(len(cycles[0]))
    return lcm(len(c) for c in cycles)


def desc_label(desc):
    kind = desc[0]
    if kind == "full":
        return "C_S"
    if kind in ("trivial", "gens"):
        return "C_1"
    if kind == "stab":
        return STAB_LABEL[desc[1]]
    if kind == "fix":
        return fix_label(desc[1], desc[2])
    if kind == "fn":
        metric = desc[1]
        if metric in ("standard-omega", "standard-z"):
            return "C_Q"
        if metric == "discrete":
            return "C_1"
        return STAB_LABEL[metric[len("partition@"):]]
    raise ValueError(f"no label for {desc!r}")


def fix_label(part, gamma):
    """The classifier's stated budget rule for fix(stab:P; gamma): an initial
    segment keeps the label of stab:P; otherwise the label is C_1 when gamma
    pins every nonsingleton block meeting the window, and the profile's
    class when some block there keeps two free points."""
    g = sorted(set(gamma))
    if g == list(range(len(g))):
        return STAB_LABEL[part]
    block_of, members, kind = PARTITIONS[part]
    pinned = set(g)
    for b in {block_of(a) for a in range(FIX_WINDOW)}:
        mem = members(b)
        if len(mem) > 1 and sum(1 for x in mem if x not in pinned) >= 2:
            return "C_Q" if kind == "bounded" else "C_P"
    return "C_1"


def _first_free(gamma, count, keep=lambda m: True):
    out, m = [], 0
    while len(out) < count:
        if m not in gamma and keep(m):
            out.append(m)
        m += 1
    return out


def orbit(desc, gamma, alpha):
    """(kind, points) of the orbit of alpha under the pointwise stabilizer of
    gamma, with "atleast" orbits cut at the first ORBIT_BUDGET members."""
    gamma = set(gamma)
    kind = desc[0]
    if kind == "fix":
        return orbit(("stab", desc[1]), gamma | set(desc[2]), alpha)
    if kind == "fn":
        metric = desc[1]
        if metric.startswith("partition@"):
            return orbit(("stab", metric[len("partition@"):]), gamma, alpha)
        if metric == "discrete":
            return "full", [alpha]
        kind = "full"
    if alpha in gamma or kind == "trivial":
        return "full", [alpha]
    if kind == "full":
        return "atleast", _first_free(gamma, ORBIT_BUDGET)
    if kind == "stab":
        block_of, members, profile = PARTITIONS[desc[1]]
        block = block_of(alpha)
        if profile == "infinite" and block == 0:
            return "atleast", _first_free(gamma, ORBIT_BUDGET,
                                          lambda m: block_of(m) == block)
        free = [x for x in members(block) if x not in gamma]
        return "full", free if len(free) >= 2 else [alpha]
    if kind == "gens":
        family, cycles = desc[1], desc[2]
        home = next((c for c in cycles if alpha in c), None)
        if home is None:
            return "full", [alpha]
        if family == "sym":
            return "full", sorted(x for x in cycles[0] if x not in gamma)
        # one generator: its powers fixing gamma are the multiples of the lcm
        # of the lengths of the cycles gamma meets
        step = lcm(len(c) for c in cycles if gamma & set(c))
        pos, n = home.index(alpha), len(home)
        return "full", sorted({home[(pos + t * step) % n] for t in range(n)})
    raise ValueError(f"no orbit reference for {desc!r}")


def sfinite_class(generators):
    """trivial iff every generator is the identity; even-finite iff every
    generator is even; otherwise odd-finite."""
    if not any(generators):
        return "trivial"
    return "even-finite" if all(is_even(g) for g in generators) else "odd-finite"


# -- machine speed -------------------------------------------------------------

_SPEED_PAIRS = [(37, 211), (5, 388), (150, 152), (64, 300), (271, 9), (333, 120)]
_SPEED_PERM = {a: (a * 37 + 11) % 500 for a in range(500) if (a * 37 + 11) % 500 != a}
_SPEED_INV = inverse_mapping(_SPEED_PERM)
_SPEED_MOVES = [(swap_pairs, swap_pairs), (finite({0: 3, 3: 0}),) * 2]


def speed_kernel():
    """Fixed pure-Python work of the library's kind (a best-first search,
    breakpoints, free-group word distances, the closure of a small group)
    that never touches symkit.  Its duration measures how fast the machine
    runs Python at that moment."""
    for a, b in _SPEED_PAIRS:
        refined_distance("intervals-growing", _SPEED_MOVES, a, b, 4)
    breakpoints(finite(_SPEED_PERM), finite(_SPEED_INV), 1000)
    seen = {tuple(range(6))}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for gen in ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)):
            new = tuple(gen[s] for s in state)
            if new not in seen:
                seen.add(new)
                frontier.append(new)
    return len(seen) + sum(_f2_distance(7 * i, 13 * i) for i in range(300))
