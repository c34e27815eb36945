"""Group descriptors, orbit probing, and the four-class classification.

A descriptor names a closed subgroup symbolically; orbit queries go through
a uniform adapter.  Classification searches stabilizing sets over initial
segments only (enlarging the set can only shrink stabilizers and orbits, and
every finite set sits inside an initial segment, so the search is sound),
and it never returns a definite label without machine-checkable evidence:
``check_evidence`` accepts a record only if re-classifying the descriptor at
the record's budgets gives the same record.

The four labels are totally ordered C_1 < C_Q < C_P < C_S; the least-cardinal
phrasing is recorded alongside each label.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .chain import StabilizerChain
from .errors import (
    ParseError,
    PreconditionError,
    ProfileViolationError,
    SymkitError,
)
from .metrics import (
    GeneralizedMetric,
    PartitionMetric,
    classify_metric,
    parse_metric,
)
from .partitions import (
    BoundedBy,
    HasInfiniteBlock,
    Partition,
    UnboundedFinite,
    parse_partition,
)
from .perm import Permutation, metered, parse_perm_list, parse_points, split_top
from .trees import FullSymmetricOracle, GroupOracle, PartitionStabilizerOracle

CLASS_ORDER = ("C_1", "C_Q", "C_P", "C_S")

LAMBDA_CASE = {
    "C_S": "aleph_1",
    "C_P": "aleph_0",
    "C_Q": "finite>=3",
    "C_1": "2",
}


def class_lt(a: str, b: str) -> bool:
    return CLASS_ORDER.index(a) < CLASS_ORDER.index(b)


# The least and greatest value of each Budgets field.  A replay runs at the
# record's own budgets, so the ceilings cap what any record can make it spend;
# orbit_budget sets most of that cost.
BUDGET_LIMITS = {"gamma_max": (0, 64), "samples": (1, 1024),
                 "orbit_budget": (1, 65536)}


@dataclass(frozen=True)
class Budgets:
    gamma_max: int = 16
    samples: int = 64
    orbit_budget: int = 4096

    def __post_init__(self):
        for name, (least, most) in BUDGET_LIMITS.items():
            value = getattr(self, name)
            if type(value) is not int or not least <= value <= most:
                raise PreconditionError(
                    f"budget {name} must be an integer in [{least}, {most}], "
                    f"got {value!r}")

    def to_dict(self):
        return {"gamma_max": self.gamma_max, "samples": self.samples,
                "orbit_budget": self.orbit_budget}


# --------------------------------------------------------------------------
# Descriptors.


class Descriptor:
    kind = "abstract"

    def to_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<descriptor {self.to_string()}>"


class FullS(Descriptor):
    kind = "full"

    def to_string(self):
        return "full"


class TrivialG(Descriptor):
    kind = "trivial"

    def to_string(self):
        return "trivial"


class PartitionStab(Descriptor):
    kind = "stab"

    def __init__(self, A: Partition, spec: str):
        self.A = A
        self.spec = spec

    def to_string(self):
        return f"stab:{self.spec}"


class PointwiseStab(Descriptor):
    kind = "fix"

    def __init__(self, inner: Descriptor, gamma: Sequence[int]):
        self.inner = inner
        self.gamma = tuple(sorted(set(gamma)))

    def to_string(self):
        pts = ",".join(str(p) for p in self.gamma)
        return f"fix({self.inner.to_string()};{pts})"


class FNGroup(Descriptor):
    kind = "fn"

    def __init__(self, metric: GeneralizedMetric, spec: str):
        self.metric = metric
        self.spec = spec

    def to_string(self):
        return f"fn:{self.spec}"


class OracleG(Descriptor):
    kind = "oracle"

    def __init__(self, oracle: GroupOracle, name: str):
        self.oracle = oracle
        self.name = name

    def to_string(self):
        return f"oracle:{self.name}"


class FiniteSupportG(Descriptor):
    kind = "gens"

    def __init__(self, gens: Sequence[Permutation], spec: str):
        self.gens = list(gens)
        self.spec = spec
        for g in self.gens:
            if g.support_bound is None:
                raise PreconditionError(
                    "gens descriptors need finite-support generators")

    def to_string(self):
        return f"gens:[{self.spec}]"


ORACLE_PLUGINS = {
    "full-sym": lambda: FullSymmetricOracle(),
    "stab-pairs": lambda: PartitionStabilizerOracle(parse_partition("pairs")),
    "stab-a0": lambda: PartitionStabilizerOracle(parse_partition("a0")),
}


def oracle_plugin(name: str) -> GroupOracle:
    """A fresh oracle from ORACLE_PLUGINS; ParseError for an unknown name."""
    if name not in ORACLE_PLUGINS:
        raise ParseError(f"unknown oracle plugin {name!r}")
    return ORACLE_PLUGINS[name]()


def parse_descriptor(s: str) -> Descriptor:
    s = s.strip()
    if s == "full":
        return FullS()
    if s == "trivial":
        return TrivialG()
    if s.startswith("stab:"):
        spec = s[len("stab:"):]
        return PartitionStab(parse_partition(spec), spec)
    if s.startswith("fix(") and s.endswith(")"):
        parts = split_top(s[len("fix("):-1], ";")
        if len(parts) != 2:
            raise ParseError(f"fix needs ';points' in {s!r}", len("fix("))
        return PointwiseStab(parse_descriptor(parts[0]), parse_points(parts[1]))
    if s.startswith("fn:"):
        spec = s[len("fn:"):]
        return FNGroup(parse_metric(spec), spec)
    if s.startswith("oracle:"):
        name = s[len("oracle:"):]
        return OracleG(oracle_plugin(name), name)
    if s.startswith("gens:"):
        inner, gens = parse_perm_list(s[len("gens:"):], "gens", s, len("gens:"))
        return FiniteSupportG(gens, inner)
    raise ParseError(f"unknown descriptor {s!r}", 0)


# --------------------------------------------------------------------------
# Orbit probing.


@dataclass
class OrbitReport:
    gamma: List[int]
    alpha: int
    kind: str           # "full" | "atleast" | "unknown"
    size: int
    points: List[int]   # a sample (the whole orbit when kind == "full")
    max_observed: int = 0

    def to_dict(self):
        return {"gamma": list(self.gamma), "alpha": self.alpha,
                "kind": self.kind, "size": self.size,
                "points": list(self.points[:16]),
                "max_observed": self.max_observed}


def _finite_group(gens: Sequence[Permutation], base_prefix: Sequence[int] = ()):
    """The support of gens, its index, and a stabilizer chain of the group
    they generate, on the support relabelled 0..n-1, whose base starts with
    the points of base_prefix that lie in the support."""
    points = sorted({a for g in gens for a in g.moved_points()})
    idx = {a: i for i, a in enumerate(points)}
    tables = [tuple(idx[g.forward(a)] for a in points) for g in gens]
    base = [idx[p] for p in base_prefix if p in idx]
    return points, idx, StabilizerChain(len(points), tables, base)


def _orbit_oracle(desc: Descriptor) -> Optional[GroupOracle]:
    """The tree oracle that answers orbit queries for desc, if there is one."""
    if isinstance(desc, FullS):
        return FullSymmetricOracle()
    if isinstance(desc, PartitionStab):
        return PartitionStabilizerOracle(desc.A)
    if isinstance(desc, FNGroup):
        if isinstance(desc.metric, PartitionMetric):
            return PartitionStabilizerOracle(desc.metric.partition)
        if desc.metric.all_finite:
            # finite-support permutations are bounded, so the stabilizer acts
            # transitively off gamma
            return FullSymmetricOracle()
    if isinstance(desc, OracleG):
        return desc.oracle
    return None


def orbit(desc: Descriptor, gamma: Sequence[int], alpha: int,
          budget: int = 4096) -> OrbitReport:
    """The orbit of alpha under the pointwise stabilizer of gamma."""
    if alpha < 0:
        raise PreconditionError(f"alpha must be a natural number, got {alpha}")
    gset = frozenset(gamma)
    glist = sorted(gset)

    def report(kind, pts):
        return OrbitReport(glist, alpha, kind, len(pts), sorted(pts)[:budget],
                           max_observed=len(pts))

    if isinstance(desc, PointwiseStab):
        return orbit(desc.inner, gset | set(desc.gamma), alpha, budget)
    oracle = _orbit_oracle(desc)
    if oracle is not None:
        r = oracle.orbit(gset, alpha, budget)
        return report(r.kind, r.points)
    if isinstance(desc, TrivialG):
        return report("full", [alpha])
    if isinstance(desc, FNGroup):
        # only the identity has finite discrete norm; other metrics have no
        # orbit adapter
        return report("full" if desc.metric.discrete_infinite else "unknown",
                      [alpha])
    if isinstance(desc, FiniteSupportG):
        points, idx, chain = _finite_group(desc.gens, glist)
        if alpha not in idx:
            return report("full", [alpha])
        # the base starts with the gamma points in the support; the others
        # are fixed by every element
        orb = chain.orbit(idx[alpha], len(gset & idx.keys()))
        return report("full", [points[x] for x in orb])
    raise PreconditionError(f"no orbit adapter for {desc!r}")


# --------------------------------------------------------------------------
# Classification.


@dataclass
class ClassLabel:
    label: str
    lambda_case: Optional[str]
    certified: bool
    basis: str
    gamma: List[int]
    probes: List[OrbitReport]
    budgets: Budgets
    samples: dict = field(default_factory=dict)

    def evidence(self) -> dict:
        return {
            "label": self.label,
            "lambda_case": self.lambda_case,
            "certified": self.certified,
            "basis": self.basis,
            "gamma": list(self.gamma),
            "probes": [p.to_dict() for p in self.probes],
            "budgets": self.budgets.to_dict(),
            "samples": self.samples,
        }


def _label(label, certified, basis, gamma, probes, budgets, samples=None):
    return ClassLabel(label, LAMBDA_CASE.get(label), certified, basis,
                      list(gamma), probes, budgets, samples or {})


def _initial_segments(budgets: Budgets) -> List[List[int]]:
    ks = [0, 1, 2, 4, 8, 16]
    return [list(range(k)) for k in ks if k <= budgets.gamma_max]


def _probe_full_style(desc, budgets) -> List[OrbitReport]:
    probes = []
    for gamma in _initial_segments(budgets):
        alpha = len(gamma)
        probes.append(orbit(desc, gamma, alpha, budgets.orbit_budget))
    return probes


def _is_initial_segment(gamma: Sequence[int]) -> bool:
    return list(gamma) == list(range(len(gamma)))


def classify_group(desc: Descriptor, budgets: Optional[Budgets] = None) -> ClassLabel:
    budgets = budgets or Budgets()

    if isinstance(desc, FullS):
        probes = _probe_full_style(desc, budgets)
        return _label("C_S", True,
                      "full-symmetric", [], probes, budgets)

    if isinstance(desc, TrivialG):
        return _label("C_1", True, "trivial-group", [], [], budgets)

    if isinstance(desc, PartitionStab):
        return _classify_partition_stab(desc, desc.A, budgets, extra_gamma=())

    if isinstance(desc, PointwiseStab):
        if _is_initial_segment(desc.gamma):
            inner = classify_group(desc.inner, budgets)
            return _label(inner.label, inner.certified,
                          "initial-segment-stabilizer",
                          list(desc.gamma), [], budgets,
                          {"inner": inner.evidence()})
        if isinstance(desc.inner, PartitionStab):
            return _classify_partition_stab(desc.inner, desc.inner.A, budgets,
                                            extra_gamma=desc.gamma)
        probes = _probe_full_style(desc, budgets)
        return _label("Unknown", False, "no-certificate", list(desc.gamma),
                      probes, budgets)

    if isinstance(desc, FNGroup):
        return _classify_fn(desc, budgets)

    if isinstance(desc, FiniteSupportG):
        if not desc.gens:
            return _label("C_1", True, "finite-group", [], [], budgets,
                          {"order": 1})
        points, _, chain = _finite_group(desc.gens)
        return _label("C_1", True, "finite-group", points, [], budgets,
                      {"order": chain.order, "support": points})

    if isinstance(desc, OracleG):
        probes = _probe_full_style(desc, budgets)
        return _label("Unknown", False, "no-certificate", [], probes, budgets)

    raise PreconditionError(f"no classifier for {desc!r}")


def _classify_partition_stab(desc: Descriptor, A: Partition, budgets: Budgets,
                             extra_gamma: Sequence[int]) -> ClassLabel:
    profile = A.profile
    window = budgets.samples * 4
    if extra_gamma and not isinstance(profile, HasInfiniteBlock):
        # an arbitrary finite set pins finitely many blocks; report what the
        # probes can actually certify at this budget
        gset = set(extra_gamma)
        blocks = A.blocks_within(window)
        unmet = []
        probes = []
        for b in blocks:
            members = A.block_members(b)
            free = [x for x in members if x not in gset]
            if len(members) > 1 and len(free) >= 2:
                unmet.append(b)
        sample_points = [p for p in range(0, window, max(1, window // budgets.samples))]
        for alpha in sample_points[:budgets.samples]:
            probes.append(orbit(desc if isinstance(desc, PartitionStab)
                                else PartitionStab(A, A.key),
                                gset, alpha, budgets.orbit_budget))
        if not unmet:
            return _label("C_1", False, "budget-trivial", sorted(gset), probes,
                          budgets, {"window": window,
                                    "blocks_checked": len(blocks)})
        return _label("C_Q" if profile.kind == "bounded" else "C_P",
                      False, "budget-surviving-orbits", sorted(gset), probes,
                      budgets, {"window": window, "unmet_blocks": unmet[:16]})

    if isinstance(profile, UnboundedFinite):
        ids = A.sample_growing_blocks(6)
        growing = [[b, len(A.block_members(b))] for b in ids]
        probes = [orbit(desc, [], b, budgets.orbit_budget) for b in ids[:4]]
        return _label("C_P", True, "partition-profile-unbounded", [], probes,
                      budgets, {"growing_blocks": growing})
    if isinstance(profile, BoundedBy):
        if profile.n >= 2 and profile.nonsingletons == "infinite":
            ids = A.sample_nonsingleton_blocks(4)
            blocks = [[b, len(A.block_members(b))] for b in ids]
            for b, size in blocks:
                if size > profile.n:
                    raise ProfileViolationError(
                        f"{A.key}: block {b} has size {size} > declared bound "
                        f"{profile.n}")
            probes = [orbit(desc, [], b, budgets.orbit_budget) for b in ids]
            return _label("C_Q", True, "partition-profile-bounded", [], probes,
                          budgets, {"bound": profile.n,
                                    "nonsingleton_blocks": blocks})
        # finitely many nonsingletons: the stabilizer of their union is trivial
        count = profile.nonsingletons if isinstance(profile.nonsingletons, int) else 0
        return _label("C_1", True, "partition-finite-nonsingletons",
                      _nonsingleton_union(A), [], budgets,
                      {"nonsingleton_count": count})
    if isinstance(profile, HasInfiniteBlock):
        # every finite set leaves an infinite orbit inside the declared block
        probes = []
        stab = desc if isinstance(desc, PartitionStab) else PartitionStab(A, A.key)
        block = A.block_of(profile.block)
        for gamma in _initial_segments(budgets):
            gset = set(gamma).union(extra_gamma)
            block_pt = A.free_points(block, gset, 1)[0]
            probes.append(orbit(stab, gset, block_pt, budgets.orbit_budget))
        return _label("C_S", True, "partition-infinite-block",
                      sorted(set(extra_gamma)), probes,
                      budgets, {"block": profile.block})
    raise PreconditionError("unknown profile")


def _nonsingleton_union(A: Partition) -> Optional[List[int]]:
    """The points of A's nonsingleton blocks if its profile declares finitely
    many, walked under one meter: a profile that declares more than exist
    stops there.  None if it declares infinitely many."""
    p = A.profile
    if not isinstance(p, BoundedBy) or (p.n >= 2 and p.nonsingletons == "infinite"):
        return None
    count = p.nonsingletons if isinstance(p.nonsingletons, int) else 0
    with metered():
        found = (b for b in A.iter_blocks() if len(A.block_members(b)) > 1)
        return sorted(a for b in itertools.islice(found, count)
                      for a in A.block_members(b))


def _classify_fn(desc: FNGroup, budgets: Budgets) -> ClassLabel:
    m = desc.metric
    if isinstance(m, PartitionMetric):
        inner = classify_group(PartitionStab(m.partition, m.partition.key),
                               budgets)
        return _label(inner.label, inner.certified, "fn-partition",
                      inner.gamma, inner.probes, budgets,
                      {"inner": inner.evidence(), "metric": m.key})
    if m.discrete_infinite:
        return _label("C_1", True, "fn-discrete", [], [], budgets,
                      {"metric": m.key})
    case = classify_metric(m)
    if m.key in ("standard-omega", "standard-z") and case.case == "CaseIII":
        return _label("C_Q", True, "fn-worked-example", [], [], budgets,
                      {"metric": m.key, "metric_case": case.case})
    return _label("Unknown", False, "fn-open", [], [], budgets,
                  {"metric": m.key, "metric_case": case.case,
                   "metric_evidence": case.evidence})


# --------------------------------------------------------------------------
# Discreteness and compactness.


@dataclass
class Verdict:
    answer: str  # "yes" | "no" | "unknown"
    basis: str
    evidence: dict


def discreteness(desc: Descriptor, budgets: Optional[Budgets] = None) -> Verdict:
    """Is some finite-set stabilizer trivial?  Searched over initial segments."""
    budgets = budgets or Budgets()
    if isinstance(desc, TrivialG):
        return Verdict("yes", "trivial stabilizer at the empty set",
                       {"gamma": []})
    if isinstance(desc, FiniteSupportG):
        pts = sorted({a for g in desc.gens for a in g.moved_points()})
        return Verdict("yes", "finite group: fixing the support pins everything",
                       {"gamma": pts})
    if isinstance(desc, FullS):
        witnesses = [{"gamma": g, "moved": [len(g), len(g) + 1]}
                     for g in _initial_segments(budgets)]
        return Verdict("no", "every initial segment leaves a transposition",
                       {"witnesses": witnesses})
    if isinstance(desc, PartitionStab):
        return _partition_discreteness(desc.A, (), budgets)
    if isinstance(desc, PointwiseStab) and isinstance(desc.inner, PartitionStab):
        return _partition_discreteness(desc.inner.A, desc.gamma, budgets)
    if isinstance(desc, FNGroup):
        m = desc.metric
        if isinstance(m, PartitionMetric):
            return _partition_discreteness(m.partition, (), budgets)
        if m.discrete_infinite:
            return Verdict("yes", "only the identity has finite norm",
                           {"gamma": []})
        if m.all_finite:
            witnesses = [{"gamma": g, "moved": [len(g), len(g) + 1]}
                         for g in _initial_segments(budgets)]
            return Verdict("no", "transpositions beyond any finite set have "
                                 "finite norm", {"witnesses": witnesses})
    return Verdict("unknown", "no certificate either way", {})


def _partition_discreteness(A: Partition, extra: Sequence[int],
                            budgets: Budgets) -> Verdict:
    union = _nonsingleton_union(A)
    if union is not None:
        return Verdict("yes", "fixing the finitely many nonsingleton blocks "
                              "pins everything", {"gamma": union})
    witnesses = []
    with metered():
        for gamma in _initial_segments(budgets):
            gset = set(gamma) | set(extra)
            if isinstance(A.profile, HasInfiniteBlock):
                found = A.free_points(A.block_of(A.profile.block), gset, 2)
            else:
                free = ([x for x in A.block_members(b) if x not in gset]
                        for b in A.iter_blocks())
                found = next(f[:2] for f in free if len(f) >= 2)
            witnesses.append({"gamma": sorted(gset), "moved": found})
    return Verdict("no", "every probed set leaves a free block transposition",
                   {"witnesses": witnesses})


def compactness_criterion(desc: Descriptor,
                          budgets: Optional[Budgets] = None) -> Verdict:
    """Compact iff closed with all orbits finite; both read at budget."""
    budgets = budgets or Budgets()
    closed, closed_basis = _closed_flag(desc)
    probes = []
    all_finite = True
    for alpha in (0, 1, 5, 17, 64):
        rep = orbit(desc, [], alpha, budgets.orbit_budget)
        probes.append(rep.to_dict())
        if rep.kind != "full":
            all_finite = False
    evidence = {"closed": closed, "closed_basis": closed_basis,
                "orbit_probes": probes}
    if closed is None:
        return Verdict("unknown", "closedness not declared", evidence)
    if not closed:
        return Verdict("no", "not closed in the function topology", evidence)
    if not all_finite:
        return Verdict("no", "an orbit exceeds the probe budget", evidence)
    return Verdict("yes", "closed with finite probed orbits", evidence)


def _closed_flag(desc: Descriptor):
    if isinstance(desc, (FullS, TrivialG, PartitionStab, FiniteSupportG)):
        return True, "closed by construction"
    if isinstance(desc, PointwiseStab):
        flag, basis = _closed_flag(desc.inner)
        return flag, basis
    if isinstance(desc, FNGroup):
        m = desc.metric
        if isinstance(m, PartitionMetric):
            return True, "bounded-norm group of a partition metric is the block stabilizer"
        if m.discrete_infinite:
            return True, "trivial group"
        if m.all_finite:
            return False, ("contains all finite-support permutations densely "
                           "but is proper")
        return None, "unknown"
    if isinstance(desc, OracleG):
        return desc.oracle.closed, "declared by the oracle"
    return None, "unknown"


# --------------------------------------------------------------------------
# Evidence replay.


def check_evidence(desc_str: str, evidence: dict) -> bool:
    """Accept a record only if re-classifying the descriptor at the record's
    budgets gives the same record.

    An ``fn-open`` record claims nothing, so it is accepted for any ``fn:``
    descriptor without re-running the metric classification behind it.
    """
    try:
        budgets = Budgets(**evidence.get("budgets", {}))
        desc = parse_descriptor(desc_str)
        if evidence.get("basis") == "fn-open":
            return evidence.get("label") == "Unknown" and \
                isinstance(desc, FNGroup)
        return classify_group(desc, budgets).evidence() == evidence
    except (SymkitError, TypeError):
        return False
