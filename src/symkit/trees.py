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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    HypothesisFailureError,
    IllFormedTreeError,
    PreconditionError,
)
from .partitions import BoundedBy, Partition, progression_outside
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
E_TREE_SIZE_CAP = 1 << 20  # tuple entries an E-tree's nodes may hold in all


@dataclass
class OrbitResult:
    kind: str          # "full" | "atleast"
    points: List[int]  # the whole orbit, or n distinct members of it


class GroupOracle:
    """Orbit and movement oracle for a closed permutation group."""

    closed = True
    max_orbit: Optional[int] = None  # greatest stabilizer-orbit size, if bounded

    def orbit(self, gamma: frozenset, alpha: int, n: int) -> OrbitResult:
        raise NotImplementedError

    def act(self, gamma: frozenset, alpha: int, target: int) -> Permutation:
        """An element fixing gamma pointwise and sending alpha to target,
        with a finite-support certificate: the tree gammas read its moved
        points (NoSupportCertificateError without one)."""
        raise NotImplementedError


class FullSymmetricOracle(GroupOracle):
    def orbit(self, gamma, alpha, n):
        if alpha in gamma:
            return OrbitResult("full", [alpha])
        return OrbitResult("atleast", progression_outside(0, 1, gamma, n))

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
        if isinstance(A.profile, BoundedBy):
            self.max_orbit = A.profile.n

    def orbit(self, gamma, alpha, n):
        if alpha in gamma:
            return OrbitResult("full", [alpha])
        A = self.A
        block_id = A.block_of(alpha)
        if A.profile.label == "C_S" and \
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

    Elements are evaluated through their parents.  A round's gamma grows
    from each new node's factor, one evaluation of the node's element per
    point the factor moves: ``_swept`` holds the base points and pivots so
    far, and ``_gamma_acc`` them with their preimages under every element.
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
        # inf mode: level -> (its pivot's images under the first n nodes, n)
        self._images: Dict[int, Tuple[set, int]] = {}
        self._swept: set = set()
        self._gamma_acc: set = set()
        self._waiting: Dict[int, List[int]] = {}
        self._gamma_nodes = 0  # nodes whose factors the gamma has read
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
        """The points of round j and their preimages under every element.

        A child's element is its factor h, then its parent's element g, so
        it pulls a swept s back to g^-1(s) unless h moves that point.  The
        preimages are thus the swept points and, for each node, the points
        m its factor moves whose image under the node's element is swept.
        Each node is read once; ``_waiting`` keeps an image not yet swept
        with its points m."""
        swept, acc, waiting = self._swept, self._gamma_acc, self._waiting
        with metered():
            for key, node in itertools.islice(
                    self.nodes.items(), self._gamma_nodes, None):
                e = self.perm(key)
                for m in node.factor.moved_points():
                    image = e._fwd(m)
                    if image in swept:
                        acc.add(m)
                    else:
                        waiting.setdefault(image, []).append(m)
        self._gamma_nodes = len(self.nodes)
        for p in self._points(j):
            if p not in swept:
                swept.add(p)
                acc.add(p)
                acc.update(waiting.pop(p, ()))
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
            forbidden_images, read = self._images.get(level, (set(), 0))
            forbidden_images.update(self.perm(k)._fwd(pivot) for k in
                                    itertools.islice(self.nodes, read, None))
            self._images[level] = forbidden_images, len(self.nodes)
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
# E-trees: freshly-labelled tuples indexed by interval permutations.


@dataclass
class ENode:
    pis: tuple                 # (pi_1, ..., pi_r), each a tuple of offsets
    token: tuple               # the injective tuple: base point i goes to token[i]
    fresh: tuple               # the components added at this level


class ETree:
    def __init__(self, breakpoints: Sequence[int]):
        bp = list(breakpoints)
        if bp and bp[0] != 0:
            raise PreconditionError("breakpoints must start at 0")
        for lo, hi in zip(bp, bp[1:]):
            if hi < lo:
                raise PreconditionError(
                    f"breakpoints must not decrease: {lo} then {hi}")
        self.breakpoints = bp
        self.levels: List[Dict[tuple, ENode]] = [
            {(): ENode((), (), ())}]

    def interval(self, r: int) -> Tuple[int, int]:
        return self.breakpoints[r - 1], self.breakpoints[r]

    def node(self, pis: tuple) -> ENode:
        return self.levels[len(pis)][pis]

    def level_count(self) -> int:
        return len(self.levels) - 1


def build_e_tree(breakpoints: Sequence[int], depth: int) -> ETree:
    """Grow the tuple tree along the given breakpoint chain.

    Each level-r node spawns one child per permutation of the interval
    [n_{r-1}, n_r); a child's new components are fresh: distinct from every
    component of every node built so far.  The least fresh natural is always
    the next one, so components are labelled 0, 1, 2, ... in build order.
    A level-r node holds r interval permutations and a tuple of n_r
    components, so the tree is sized first and refused when its nodes would
    hold more than E_TREE_SIZE_CAP entries.
    """
    tree = ETree(breakpoints)
    levels = min(depth, len(tree.breakpoints) - 1)
    size, count = 0, 1
    for r in range(1, levels + 1):
        lo, hi = tree.interval(r)
        for k in range(2, hi - lo + 1):
            count *= k
            if count > E_TREE_SIZE_CAP:
                break
        size += count * (r + hi)
        if size > E_TREE_SIZE_CAP:
            raise PreconditionError(
                f"the E-tree passes the cap of {E_TREE_SIZE_CAP} tuple entries "
                f"at level {r}, the interval [{lo}, {hi})")
    labels = itertools.count()
    for r in range(1, levels + 1):
        lo, hi = tree.interval(r)
        pis = list(itertools.permutations(range(hi - lo)))
        new_level: Dict[tuple, ENode] = {}
        for parent in tree.levels[r - 1].values():
            for pi in pis:
                fresh = tuple(itertools.islice(labels, hi - lo))
                node = ENode(parent.pis + (pi,), parent.token + fresh, fresh)
                new_level[node.pis] = node
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


def realize_tuple(token: tuple) -> FiniteSupportPermutation:
    """A finite permutation sending each base point i to token[i]; the
    entries past the base pair off, in order, with the base points left
    free."""
    mapping = dict(enumerate(token))
    targets, sources = set(token), set(range(len(token)))
    for u, v in zip(sorted(targets - sources), sorted(sources - targets)):
        mapping[u] = v
    return FiniteSupportPermutation(
        {a: b for a, b in mapping.items() if a != b})


@dataclass
class ConjugationReport:
    ok: bool
    checked: List[int]
    failure: Optional[dict] = None


def verify_conjugation(tree: ETree, s: Permutation, pi: Dict[int, int],
                       window: int) -> ConjugationReport:
    """Check i . g . s == (i pi) . g for i < window, where g realizes the
    token of the branch whose interval permutations match pi."""
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
        if len(set(offsets)) != len(offsets):
            raise PreconditionError(
                f"pi is not one-to-one on the interval [{lo}, {hi})")
        pis.append(tuple(offsets))
    g = realize_tuple(tree.node(tuple(pis)).token)
    checked = []
    top = min(window, tree.breakpoints[levels] if levels else 0)
    for i in range(top):
        lhs = s.forward(g.forward(i))
        rhs = g.forward(pi.get(i, i))
        if lhs != rhs:
            return ConjugationReport(False, checked,
                                     {"i": i, "lhs": lhs, "rhs": rhs})
        checked.append(i)
    return ConjugationReport(True, checked)
