"""Depth-bounded recursive constructions over pointwise-stabilizer oracles.

A group oracle answers orbit queries for stabilizers of finite sets and can
move a point within such an orbit.  The tree builders grow indexed families
of group elements whose branches converge in the function topology; the
convergence conditions are packaged so the limit machinery re-verifies them.

Every "any element" choice resolves to the least index, and every orbit
hypothesis is consumed as "at least the currently needed size", which is
exactly what a depth-bounded construction can observe.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    HypothesisFailureError,
    IllFormedTreeError,
    PreconditionError,
)
from .partitions import Partition
from .perm import (
    ConstantTail,
    ConvergentSequence,
    FiniteSupportPermutation,
    LimitPermutation,
    Permutation,
    WordPermutation,
    identity,
    limit,
    metered,
)

PIVOT_SCAN_CAP = 10_000
TREE_DEPTH_CAP = 12


def _first_outside(avoid, n: int) -> List[int]:
    """The ``n`` least naturals not in ``avoid``."""
    return list(itertools.islice(
        itertools.filterfalse(avoid.__contains__, itertools.count()), n))


@dataclass
class OrbitResult:
    kind: str          # "full" | "atleast"
    points: List[int]  # the whole orbit, or n distinct members of it


class GroupOracle:
    """Orbit and movement oracle for a closed permutation group."""

    closed = True
    max_orbit: Optional[int] = None  # greatest stabilizer-orbit size, if bounded
    name = "oracle"

    def orbit(self, gamma: frozenset, alpha: int, n: int) -> OrbitResult:
        raise NotImplementedError

    def act(self, gamma: frozenset, alpha: int, target: int) -> Permutation:
        """An element fixing gamma pointwise and sending alpha to target."""
        raise NotImplementedError


class FullSymmetricOracle(GroupOracle):
    name = "full-sym"

    def orbit(self, gamma, alpha, n):
        if alpha in gamma:
            return OrbitResult("full", [alpha])
        return OrbitResult("atleast", _first_outside(gamma, n))

    def act(self, gamma, alpha, target):
        if alpha == target:
            return identity()
        if alpha in gamma or target in gamma:
            raise HypothesisFailureError(
                f"cannot move {alpha} to {target} while fixing gamma")
        return FiniteSupportPermutation({alpha: target, target: alpha})


class PartitionStabilizerOracle(GroupOracle):
    """The group preserving every block of a partition."""

    def __init__(self, A: Partition):
        self.A = A
        self.name = f"stab:{A.key}"
        if A.profile.kind == "bounded":
            self.max_orbit = A.profile.n

    def orbit(self, gamma, alpha, n):
        if alpha in gamma:
            return OrbitResult("full", [alpha])
        A = self.A
        block_id = A.block_of(alpha)
        if A.profile.kind == "infinite-block" and \
                block_id == A.block_of(A.profile.block):
            return OrbitResult("atleast", A.free_points(block_id, gamma, n))
        free = [x for x in A.block_members(block_id) if x not in gamma]
        if alpha not in free or len(free) < 2:
            return OrbitResult("full", [alpha])
        return OrbitResult("full", sorted(free))

    def act(self, gamma, alpha, target):
        if self.A.block_of(alpha) != self.A.block_of(target):
            raise HypothesisFailureError(
                f"{alpha} and {target} lie in different blocks")
        return FullSymmetricOracle.act(self, gamma, alpha, target)


# --------------------------------------------------------------------------


@dataclass
class TreeNode:
    key: tuple                 # the index tuple
    factors: list              # flat factor list; the element applies left first
    factor: Permutation        # the left factor added over the parent
    parent: Optional[tuple]
    event: frozenset           # the set the factor was required to fix


class _TreeElement(WordPermutation):
    """A node's element: its own left factor, then its parent's memoised
    element, so a new (element, point) pair costs one factor step.  Either
    direction fills both memos; ``factors`` keeps the flat word to print.
    The certificates are the flat word's, built in O(1) from the parent's."""

    def __init__(self, node: TreeNode, parent: Permutation):
        Permutation.__init__(self)
        self.factors = node.factors
        self._memo_f, self._memo_b = {}, {}
        factor = self._factor = node.factor
        self._parent = parent
        if None not in (factor.support_bound, parent.support_bound):
            self.support_bound = max(factor.support_bound, parent.support_bound)
        own = factor.displacement_bounds
        self.displacement_bounds = dict(own) if node.parent == () else {
            k: v + own[k] for k, v in parent.displacement_bounds.items()
            if k in own}

    def _fwd(self, alpha):
        value = self._memo_f.get(alpha)
        if value is None:
            value = self._parent._fwd(self._factor._fwd(alpha))
            self._memo_f[alpha] = value
            self._memo_b[value] = alpha
        return value

    def _bwd(self, alpha):
        value = self._memo_b.get(alpha)
        if value is None:
            value = self._factor._bwd(self._parent._bwd(alpha))
            self._memo_b[alpha] = value
            self._memo_f[value] = alpha
        return value


class TreeState:
    """State of one recursion: pivots, per-round gammas, and indexed elements.

    Modes:
      "binary":    two children per element, indexed by bits; pivots are the
                   two least members of a maximal finite orbit.
      "unbounded": n_sequence[j] children per element at level j; pivots have
                   orbits of size at least |level| * n_sequence[j].
      "inf":       elements g(k_0..k_{r-1}) grouped by r + sum(k) = j; every
                   pivot needs an orbit larger than everything built so far.

    Elements are evaluated through their parents.  Gammas grow incrementally:
    ``_swept`` lists the base points and pivots pulled back so far, and
    ``_gamma_acc`` holds them with their preimages under every element.
    """

    def __init__(self, mode: str, oracle: GroupOracle,
                 n_sequence: Optional[Sequence[int]] = None):
        self.mode = mode
        self.oracle = oracle
        self.n_sequence = list(n_sequence) if n_sequence is not None else None
        self.alphas: List[int] = []
        self.betas: List[int] = []
        self.gammas: List[frozenset] = []
        self.nodes: Dict[tuple, TreeNode] = {
            (): TreeNode((), [], identity(), None, frozenset())}
        self._perms: Dict[tuple, Permutation] = {(): identity()}
        self._used_targets: set = set()
        self._swept: List[int] = []
        self._gamma_acc: set = set()
        self._gamma_mark = (0, 0)  # node and swept-point counts at last call
        self.rounds = 0

    # -- shared plumbing ----------------------------------------------------

    def perm(self, key: tuple) -> Permutation:
        if key not in self._perms:
            node = self.nodes[key]
            self._perms[key] = _TreeElement(node, self.perm(node.parent))
        return self._perms[key]

    def _points(self, j: int) -> List[int]:
        return list(range(j)) + self.alphas[:j] + self.betas[:j]

    def _gamma(self, j: int) -> frozenset:
        """The points of round j and their preimages under every element:
        new points on old elements, all points on new ones.  A point already
        in the gamma as a preimage is still swept once it is a base point."""
        swept, acc = self._swept, self._gamma_acc
        for p in self._points(j):
            if p not in swept:
                swept.append(p)
        acc.update(swept)
        old_nodes, old_swept = self._gamma_mark
        with metered():
            for i, key in enumerate(self.nodes):
                acc.update(map(self.perm(key)._bwd,
                               swept[old_swept if i < old_nodes else 0:]))
        self._gamma_mark = (len(self.nodes), len(swept))
        return frozenset(acc)

    def level_keys(self, j: int) -> List[tuple]:
        if self.mode == "inf":
            return sorted(k for k in self.nodes if len(k) + sum(k) == j)
        return sorted(k for k in self.nodes if len(k) == j)

    def n_at(self, i: int) -> int:
        if self.n_sequence is None:
            raise PreconditionError("this mode needs a multiplicity sequence")
        if i < len(self.n_sequence):
            return self.n_sequence[i]
        return self.n_sequence[-1] + (i - len(self.n_sequence) + 1)

    def _add_node(self, key: tuple, factor: Permutation,
                  event: frozenset) -> None:
        parent = key[:-1]
        self.nodes[key] = TreeNode(
            key, [factor] + self.nodes[parent].factors, factor, parent, event)

    def _pivot(self, gamma: frozenset, need: int, ask: int):
        """The least point outside gamma whose orbit, asked for ``ask``
        points, shows at least ``need``, with that orbit; (None, None) when
        no point below PIVOT_SCAN_CAP does."""
        for cand in range(PIVOT_SCAN_CAP):
            if cand not in gamma:
                r = self.oracle.orbit(gamma, cand, ask)
                if len(r.points) >= need:
                    return cand, r
        return None, None

    # -- mode-specific rounds ------------------------------------------------

    def _round_binary(self) -> None:
        j = self.rounds
        gamma = self._gamma(j)
        self.gammas.append(gamma)
        M = self.oracle.max_orbit
        if M is None or M < 2:
            raise PreconditionError(
                "binary mode needs an oracle with a declared orbit bound >= 2")
        alpha, r = self._pivot(gamma, M, M + 1)
        if alpha is None:
            raise HypothesisFailureError(
                f"no orbit of size {M} found", level=j, gamma=gamma)
        if r.kind == "atleast" or len(r.points) > M:
            raise HypothesisFailureError(
                f"orbit of {alpha} exceeds the declared maximum {M}",
                level=j, gamma=gamma)
        a, b = sorted(r.points)[:2]
        self.alphas.append(a)
        self.betas.append(b)
        for key in self.level_keys(j):
            g = self.perm(key)
            for bit, target in ((0, a), (1, b)):
                pre = g._bwd(target)
                h = self.oracle.act(gamma, a, pre)
                self._add_node(key + (bit,), h, gamma)

    def _round_unbounded(self) -> None:
        j = self.rounds
        gamma = self._gamma(j)
        self.gammas.append(gamma)
        level = self.level_keys(j)
        need = max(2, len(level) * self.n_at(j))
        alpha, r = self._pivot(gamma, need, need)
        if alpha is None:
            raise HypothesisFailureError(
                f"no orbit of size >= {need} found", level=j, gamma=gamma)
        orbit_pts = sorted(r.points)
        self.alphas.append(alpha)
        used_images: set = set()
        for key in level:
            g = self.perm(key)
            for k in range(self.n_at(j)):
                chosen = next((tau for tau in orbit_pts
                               if g._fwd(tau) not in used_images), None)
                if chosen is None:
                    raise HypothesisFailureError(
                        f"orbit of {alpha} too small to avoid collisions",
                        level=j, gamma=gamma)
                used_images.add(g._fwd(chosen))
                self._add_node(key + (k,),
                               self.oracle.act(gamma, alpha, chosen), gamma)

    def _round_inf(self) -> None:
        """One round of the open-ended recursion.

        The elements grouped at index j have every tuple length r <= j; a
        child's left factor moves the pivot of its own level, so it is
        constrained to fix a node-specific set: the base window, the earlier
        pivots, and their preimages under the parent chain.  Factor targets
        additionally avoid every pivot and each other, so all built elements
        fix all pivots of later levels, which keeps the node-specific sets
        clear of the pivots being moved.
        """
        j = self.rounds + 1  # this round constructs the elements grouped at j
        gamma_sel = frozenset(self._gamma(j) | self._used_targets)
        self.gammas.append(gamma_sel)
        while len(self.alphas) < j:
            need = 16 + 2 * len(self.nodes)
            pivot = self._pivot(gamma_sel, need, need)[0]
            if pivot is None:
                raise HypothesisFailureError(
                    "no point with a large enough orbit", level=j,
                    gamma=gamma_sel)
            self.alphas.append(pivot)
        new_keys: List[tuple] = []
        for r in range(1, j + 1):
            new_keys.extend(_compositions(j - r, r))
        for key in sorted(new_keys):
            parent = key[:-1]
            g = self.perm(parent)
            level = len(key) - 1
            pivot = self.alphas[level]
            pts = self._points(level)
            lam = set(pts) | {g._bwd(p) for p in pts}
            if pivot in lam:
                raise HypothesisFailureError(
                    f"pivot {pivot} pinned by the event set of {key}",
                    level=j, gamma=frozenset(lam))
            avoid = set(lam) | set(self.alphas) | self._used_targets
            forbidden_images = {self.perm(k)._fwd(pivot)
                                for k in self.nodes}
            chosen = None
            n = 16
            while chosen is None:
                r = self.oracle.orbit(frozenset(lam), pivot, n)
                chosen = next((tau for tau in sorted(r.points)
                               if tau not in avoid and
                               g._fwd(tau) not in forbidden_images), None)
                if chosen is None:
                    if r.kind == "full":
                        raise HypothesisFailureError(
                            f"orbit of pivot {pivot} exhausted", level=j,
                            gamma=frozenset(lam))
                    n *= 2
            self._used_targets.add(chosen)
            h = self.oracle.act(frozenset(lam), pivot, chosen)
            self._add_node(key, h, frozenset(lam))

    def build_round(self) -> None:
        with metered():
            {"binary": self._round_binary,
             "unbounded": self._round_unbounded,
             "inf": self._round_inf}[self.mode]()
        self.rounds += 1

    @property
    def depth(self) -> int:
        return self.rounds

    # -- invariants ----------------------------------------------------------

    def verify_invariants(self) -> dict:
        """Re-check the construction: each left factor fixes its event set,
        and distinct same-level elements act differently on their pivot."""
        with metered():
            checked_factors = 0
            for key, node in self.nodes.items():
                if node.parent is None:
                    continue
                checked_factors += 1
                if isinstance(node.factor, FiniteSupportPermutation) and \
                        node.event.isdisjoint(node.factor.moved_points()):
                    continue
                for p in node.event:
                    if node.factor._fwd(p) != p:
                        raise IllFormedTreeError(
                            f"factor of {key} moves {p} of its event set")
            sibling_checks = 0
            for j in range(self.rounds):
                if self.mode == "binary":
                    pivot = self.alphas[j]
                    for key in self.level_keys(j):
                        images = {self.perm(key + (b,))._fwd(pivot)
                                  for b in (0, 1)}
                        if len(images) != 2:
                            raise IllFormedTreeError(
                                f"children of {key} collide on pivot {pivot}")
                        sibling_checks += 1
                elif self.mode == "unbounded":
                    pivot = self.alphas[j]
                    keys = [k for k in self.nodes if len(k) == j + 1]
                    images = [self.perm(k)._fwd(pivot) for k in keys]
                    if len(set(images)) != len(images):
                        raise IllFormedTreeError(
                            f"level {j + 1} elements collide on pivot {pivot}")
                    sibling_checks += len(keys)
        return {"factors_checked": checked_factors,
                "sibling_checks": sibling_checks}


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` naturals summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def build_tree(oracle: GroupOracle, mode: str, depth: int,
               n_sequence: Optional[Sequence[int]] = None) -> TreeState:
    if depth < 0:
        raise PreconditionError(f"depth must be a natural number, got {depth}")
    if depth > TREE_DEPTH_CAP:
        raise PreconditionError(
            f"depth {depth} exceeds the cap {TREE_DEPTH_CAP}: node counts "
            f"grow exponentially")
    tree = TreeState(mode, oracle, n_sequence=n_sequence)
    for _ in range(depth):
        tree.build_round()
    return tree


# --------------------------------------------------------------------------
# Branch sequences and limits.


def _branch_prefixes(tree: TreeState, choice: Sequence[int]) -> List[tuple]:
    prefixes = [tuple(choice[:i]) for i in range(len(choice) + 1)]
    for p in prefixes:
        if p not in tree.nodes:
            raise PreconditionError(
                f"branch prefix {p} was never built (tree depth {tree.depth})")
    return prefixes


def branch_sequence(tree: TreeState, choice: Sequence[int]) -> ConvergentSequence:
    """Package a branch for the limit machinery.

    Term j pairs the prefix of length j+1 with a set containing the base
    points, the pivots, and their preimages under the length-j prefix; the
    left factor of each step fixes that set because it fixes the larger
    per-round set recorded during construction.  Beyond the built depth the
    sequence continues constantly.
    """
    choice = tuple(choice)
    prefixes = _branch_prefixes(tree, choice)
    depth = len(choice)

    def base_terms(j: int):  # j < depth, or j = 0 for a depth-0 branch
        pts = set(tree._points(j))
        prev = tree.perm(prefixes[j])
        lean_gamma = frozenset(pts | {prev.backward(p) for p in pts})
        return tree.perm(prefixes[min(j + 1, depth)]), lean_gamma

    return ConstantTail(base_terms, depth)


def branch_limit(tree: TreeState, choice: Sequence[int]) -> LimitPermutation:
    return limit(branch_sequence(tree, choice), len(choice))


# --------------------------------------------------------------------------
# D-families: prefix-extendable tuple families with realization.


class DFamily:
    def alpha(self, i: int) -> int:
        raise NotImplementedError

    def multiplicity(self, i: int) -> Optional[int]:
        """A lower bound on the number of extensions at level i (None = plenty)."""
        return None

    def extensions(self, token, count: int, forbidden: set) -> List[tuple]:
        """Up to ``count`` fresh (value, child_token) extensions of a prefix."""
        raise NotImplementedError

    def realize(self, token) -> Permutation:
        raise NotImplementedError


class FullTupleFamily(DFamily):
    """All injective tuples over the naturals; realized by finite assignments."""

    def alpha(self, i: int) -> int:
        return i

    def extensions(self, token, count, forbidden):
        return [(m, tuple(token) + (m,))
                for m in _first_outside(set(token) | set(forbidden), count)]

    def realize(self, token):
        mapping = {}
        targets = set(token)
        sources = set(range(len(token)))
        for i, b in enumerate(token):
            mapping[i] = b
        for u, v in zip(sorted(targets - sources), sorted(sources - targets)):
            mapping[u] = v
        return FiniteSupportPermutation(
            {a: b for a, b in mapping.items() if a != b})


class TreeDFamily(DFamily):
    """Tuples realized by a stabilizer tree: values are pivot images."""

    def __init__(self, tree: TreeState, grow: bool = False):
        self.tree = tree
        self.grow = grow

    def alpha(self, i: int) -> int:
        while i >= len(self.tree.alphas):
            if not self.grow:
                raise PreconditionError("tree too shallow for this level")
            self.tree.build_round()
        return self.tree.alphas[i]

    def multiplicity(self, i: int) -> Optional[int]:
        if self.tree.mode == "binary":
            return 2
        if self.tree.mode == "unbounded":
            return self.tree.n_at(i)
        return None

    def _have_node(self, key: tuple) -> bool:
        while key not in self.tree.nodes:
            if not self.grow:
                return False
            try:
                self.tree.build_round()
            except HypothesisFailureError:
                return False
        return True

    def extensions(self, token, count, forbidden):
        level = len(token)
        pivot = self.alpha(level)
        out = []
        k = 0
        cap = self.multiplicity(level)
        while len(out) < count:
            if cap is not None and k >= cap:
                break
            child = tuple(token) + (k,)
            if not self._have_node(child):
                break
            value = self.tree.perm(child).forward(pivot)
            if value not in forbidden:
                out.append((value, child))
            k += 1
        return out

    def realize(self, token):
        return branch_limit(self.tree, token)


# --------------------------------------------------------------------------
# E-trees: freshly-labelled tuples indexed by interval permutations.


@dataclass
class ENode:
    pis: tuple                 # (pi_1, ..., pi_r), each a tuple of offsets
    token: tuple               # D-family token realizing the components
    components: tuple          # the fresh components, in level order
    fresh: tuple               # the components added at this level
    positions: tuple           # base-sequence indices of the fresh components


class ETree:
    def __init__(self, family: DFamily, breakpoints: Sequence[int], mode: str):
        bp = list(breakpoints)
        if bp and bp[0] != 0:
            raise PreconditionError("breakpoints must start at 0")
        self.family = family
        self.breakpoints = bp
        self.mode = mode
        self.levels: List[Dict[tuple, ENode]] = [
            {(): ENode((), (), (), (), ())}]
        self.used_components: set = set()
        self.positions: List[int] = []  # the D-family level of each base position
        self.jump_bounds: List[dict] = []

    def interval(self, r: int) -> Tuple[int, int]:
        return self.breakpoints[r - 1], self.breakpoints[r]

    def node(self, pis: tuple) -> ENode:
        return self.levels[len(pis)][pis]

    def level_count(self) -> int:
        return len(self.levels) - 1


def _sym(width: int):
    return [tuple(p) for p in itertools.permutations(range(width))]


def build_e_tree(family: DFamily, breakpoints: Sequence[int], depth: int,
                 mode: str = "inf") -> ETree:
    """Grow the tuple tree along the given breakpoint chain.

    Each level-r node spawns one child per permutation of the interval
    [n_{r-1}, n_r); a child's new components are fresh: distinct from every
    component of every node built so far.  In "jump" mode components are
    drawn at jumped-forward levels whose multiplicities clear the counting
    bound |E_{r-1}| * (w * w! + n_{r-1}).
    """
    tree = ETree(family, breakpoints, mode)
    levels = min(depth, len(tree.breakpoints) - 1)
    next_d_level = 0
    for r in range(1, levels + 1):
        lo, hi = tree.interval(r)
        width = hi - lo
        prev = tree.levels[r - 1]
        bound = len(prev) * (width * math.factorial(width) + lo)
        jumps: List[int] = []
        if mode == "jump":
            i = next_d_level
            for _ in range(width):
                while True:
                    mult = family.multiplicity(i)
                    if mult is None or mult >= bound:
                        break
                    i += 1
                    if i > 10**5:
                        raise HypothesisFailureError(
                            f"no level with multiplicity >= {bound}")
                jumps.append(i)
                i += 1
            next_d_level = i
            tree.jump_bounds.append({"level": r, "bound": bound, "jumps": jumps})
        positions = tuple(jumps) if mode == "jump" else tuple(range(lo, hi))
        tree.positions.extend(positions)
        new_level: Dict[tuple, ENode] = {}
        for pis, parent in prev.items():
            for pi in _sym(width):
                token = parent.token
                fresh: List[int] = []
                for target in positions:  # a plain token has length lo already
                    while len(token) < target:
                        opts = family.extensions(token, 1, set())
                        if not opts:
                            raise HypothesisFailureError(
                                f"family exhausted filling to level {target}")
                        token = opts[0][1]
                    opts = family.extensions(
                        token, 1, tree.used_components | set(fresh))
                    if not opts:
                        raise HypothesisFailureError(
                            f"family exhausted at level {len(token)}")
                    value, token = opts[0]
                    fresh.append(value)
                node = ENode(parent.pis + (pi,), token,
                             parent.components + tuple(fresh),
                             tuple(fresh), positions)
                new_level[node.pis] = node
                tree.used_components.update(fresh)
        tree.levels.append(new_level)
    return tree


def build_s(tree: ETree) -> FiniteSupportPermutation:
    """The single permutation acting as each node's pi on its fresh components.

    Freshness makes the assignment single-valued; a duplicate component is an
    ill-formed tree.
    """
    mapping: dict = {}
    assigned: set = set()
    for level in tree.levels[1:]:
        for node in level.values():
            pi = node.pis[-1]
            for offset, comp in enumerate(node.fresh):
                if comp in assigned:
                    raise IllFormedTreeError(
                        f"component {comp} received two assignments")
                assigned.add(comp)
                mapping[comp] = node.fresh[pi[offset]]
    return FiniteSupportPermutation(
        {a: b for a, b in mapping.items() if a != b})


@dataclass
class ConjugationReport:
    ok: bool
    checked: List[int]
    failure: Optional[dict] = None


def verify_conjugation(tree: ETree, s: Permutation, pi: Dict[int, int],
                       window: int) -> ConjugationReport:
    """Check alpha_i . g . s == alpha_{i pi} . g for i < window, where g
    realizes the branch whose interval permutations match pi."""
    levels = tree.level_count()
    pis = []
    for r in range(1, levels + 1):
        lo, hi = tree.interval(r)
        offsets = []
        for i in range(lo, hi):
            img = pi.get(i, i)
            if not (lo <= img < hi):
                raise PreconditionError(
                    f"pi does not preserve the interval [{lo}, {hi}): "
                    f"{i} -> {img}")
            offsets.append(img - lo)
        pis.append(tuple(offsets))
    node = tree.node(tuple(pis))
    g = tree.family.realize(node.token)
    checked = []
    top = min(window, tree.breakpoints[levels] if levels else 0)
    for i in range(top):
        a = tree.family.alpha(tree.positions[i])
        lhs = s.forward(g.forward(a))
        img = pi.get(i, i)
        rhs = g.forward(tree.family.alpha(tree.positions[img]))
        if lhs != rhs:
            return ConjugationReport(False, checked,
                                     {"i": i, "lhs": lhs, "rhs": rhs})
        checked.append(i)
    return ConjugationReport(True, checked)
