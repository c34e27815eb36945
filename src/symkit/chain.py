"""Deterministic Schreier–Sims stabilizer chains of finite permutation groups.

Points are 0..n-1 and a permutation is a tuple ``p`` with ``p[x]`` the image
of ``x``; products act on the right, as in :mod:`symkit.perm`.  Level ``i``
of a chain holds the base point ``base[i]``, strong generators of the
pointwise stabilizer of ``base[:i]`` and a transversal of their orbit of
``base[i]``.  The chain is built by the deterministic Schreier–Sims algorithm
(Sims 1970; Seress, *Permutation Group Algorithms*, 2003, ch. 4;
Holt–Eick–O'Brien, *Handbook of Computational Group Theory*, 2005, 4.4.2).
Nothing is randomized, so equal inputs always give equal chains.  Each
permutation product is one step, counted in the chain's ``spent`` in batches
(a sift, an orbit extension, a generator's run of Schreier products); past
CHAIN_BUDGET steps the build raises EvaluationBudgetError with form
``chain``.  The count is the chain's own, so a small chain pays for no meter.
"""
from __future__ import annotations

from math import prod
from operator import itemgetter
from typing import List, Sequence, Tuple

from .errors import EvaluationBudgetError
from .perm import DEFAULT_STEP_BUDGET

Perm = Tuple[int, ...]

CHAIN_BUDGET = DEFAULT_STEP_BUDGET


def _mul(p: Perm, q: Perm) -> Perm:
    """p then q."""
    # a one-argument itemgetter returns a bare item; on fewer than two points
    # the only permutation is the identity
    return itemgetter(*p)(q) if len(p) > 1 else q


def _inv(p: Perm) -> Perm:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _first_moved(p: Perm) -> int:
    return next(x for x, y in enumerate(p) if x != y)


class StabilizerChain:
    """A base and strong generating set of the group generated by gens.

    The base starts with ``base_prefix`` (distinct points, kept even where
    they add nothing), so level ``len(base_prefix)`` generates the pointwise
    stabilizer of the prefix.
    """

    def __init__(self, n: int, gens: Sequence[Perm],
                 base_prefix: Sequence[int] = ()):
        self.ident: Perm = tuple(range(n))
        self.base: List[int] = []
        self.strong: List[List[Perm]] = []
        self.orbits: List[List[int]] = []
        # per level: point -> u with base[i] . u == point, and the inverses
        self.transversal: List[dict] = []
        self.inverses: List[dict] = []
        # per level and strong generator: how many orbit points were checked
        self._checked: List[List[int]] = []
        self.spent = 0  # permutation products made
        for b in base_prefix:
            self._add_level(b)
        for g in dict.fromkeys(gens):
            if g == self.ident:
                continue
            depth = next((i for i, b in enumerate(self.base) if g[b] != b),
                         None)
            if depth is None:
                depth = self._add_level(_first_moved(g))
            for level in range(depth + 1):
                self._grow(level, g)
        self._complete()

    @property
    def order(self) -> int:
        return prod(len(orbit) for orbit in self.orbits)

    def orbit(self, alpha: int, level: int) -> List[int]:
        """The orbit of alpha under the pointwise stabilizer of base[:level]."""
        gens = self.strong[level] if level < len(self.base) else []
        orbit = [alpha]
        seen = {alpha}
        for p in orbit:
            for s in gens:
                q = s[p]
                if q not in seen:
                    seen.add(q)
                    orbit.append(q)
        return orbit

    # -- construction ----------------------------------------------------

    def _spend(self, products: int) -> None:
        self.spent += products
        if self.spent > CHAIN_BUDGET:
            raise EvaluationBudgetError(
                f"evaluation step budget exhausted: limit {CHAIN_BUDGET}, form chain",
                limit=CHAIN_BUDGET, spent=self.spent, form="chain")

    def _add_level(self, b: int) -> int:
        self.base.append(b)
        self.strong.append([])
        self.orbits.append([b])
        self.transversal.append({b: self.ident})
        self.inverses.append({b: self.ident})
        self._checked.append([])
        return len(self.base) - 1

    def _grow(self, level: int, g: Perm) -> None:
        """Add g to the strong generators of level and extend its orbit."""
        gens = self.strong[level]
        gens.append(g)
        self._checked[level].append(0)
        orbit, u = self.orbits[level], self.transversal[level]
        known = start = len(orbit)
        for p in orbit[:known]:
            q = g[p]
            if q not in u:
                u[q] = _mul(u[p], g)
                orbit.append(q)
        while known < len(orbit):
            p = orbit[known]
            known += 1
            for s in gens:
                q = s[p]
                if q not in u:
                    u[q] = _mul(u[p], s)
                    orbit.append(q)
        self._spend(len(orbit) - start)  # one product per new orbit point

    def _inverse(self, level: int, q: int) -> Perm:
        inv = self.inverses[level].get(q)
        if inv is None:
            inv = self.inverses[level][q] = _inv(self.transversal[level][q])
        return inv

    def _sift(self, g: Perm, level: int) -> Tuple[Perm, int]:
        """Strip g through the levels from level on; the residue and the
        level it dropped out at (len(base) if it passed every level)."""
        products, drop = 0, len(self.base)
        for i in range(level, len(self.base)):
            q = g[self.base[i]]
            if q == self.base[i]:
                continue
            if q not in self.transversal[i]:
                drop = i
                break
            g = _mul(g, self._inverse(i, q))
            products += 1
        self._spend(products)
        return g, drop

    def _residue(self, level: int):
        """A Schreier generator of level that does not sift through the
        levels below, stripped as far as it goes, or None.  Each (orbit
        point, generator) pair is tried once: one that sifted stays in the
        group the levels below generate, since they only grow."""
        orbit, u = self.orbits[level], self.transversal[level]
        checked = self._checked[level]
        for k, s in enumerate(self.strong[level]):
            start = checked[k]  # the products made since the last charge
            while checked[k] < len(orbit):
                p = orbit[checked[k]]
                checked[k] += 1
                q = s[p]
                us = _mul(u[p], s)
                if us == u[q]:
                    continue
                self._spend(checked[k] - start + 1)
                start = checked[k]
                h, drop = self._sift(_mul(us, self._inverse(level, q)),
                                     level + 1)
                if h != self.ident:
                    return h, drop
            self._spend(checked[k] - start)
        return None

    def _complete(self) -> None:
        level = len(self.base) - 1
        while level >= 0:
            found = self._residue(level)
            if found is None:
                level -= 1
                continue
            h, drop = found
            if drop == len(self.base):
                self._add_level(_first_moved(h))
            for i in range(level + 1, drop + 1):
                self._grow(i, h)
            level = drop
