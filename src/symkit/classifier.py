"""Group descriptors, orbit probing, and the four-class classification.

A descriptor names a closed subgroup symbolically; orbit queries go through
a uniform adapter.  Classification searches stabilizing sets over initial
segments only (enlarging the set can only shrink stabilizers and orbits, and
every finite set sits inside an initial segment, so the search is sound),
and it never returns a definite label without machine-checkable evidence.
``BASES`` names, for each basis a record can carry, the producer that emits
it and the checker that ``check_evidence`` runs on it: the checker tests the
record's claims against the descriptor by its own route, never by
classifying again.

The four labels are totally ordered C_1 < C_Q < C_P < C_S; the least-cardinal
phrasing is recorded alongside each label.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .chain import StabilizerChain
from .errors import (
    EvaluationBudgetError,
    ParseError,
    PreconditionError,
    ProfileViolationError,
    SymkitError,
)
from .metrics import GeneralizedMetric, PartitionMetric, parse_metric
from .partitions import parse_partition
from .perm import Permutation, metered, parse_perm_list, parse_points, split_top
from .trees import FullSymmetricOracle, GroupOracle, PartitionStabilizerOracle

CLASS_ORDER = ("C_1", "C_Q", "C_P", "C_S")

LAMBDA_CASE = {
    "C_S": "aleph_1",
    "C_P": "aleph_0",
    "C_Q": "finite>=3",
    "C_1": "2",
}


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


def _finite_claims(gens: Sequence[Permutation]):
    """γ, probes and samples of a finite-group record: the union of the
    generators' supports, which pins the group, and its order, or the order
    unknown at the chain's step budget."""
    if not gens:
        return [], [], {"order": 1}
    try:
        points, _, chain = _finite_group(gens)
        samples = {"order": chain.order}
    except EvaluationBudgetError as exc:
        if exc.form != "chain":
            raise
        points = sorted({a for g in gens for a in g.moved_points()})
        samples = {"order": "unknown", "chain_budget": exc.limit}
    return points, [], {**samples, "support": points}


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
    return [orbit(desc, gamma, len(gamma), budgets.orbit_budget)
            for gamma in _initial_segments(budgets)]


def classify_group(desc: Descriptor, budgets: Optional[Budgets] = None) -> ClassLabel:
    budgets = budgets or Budgets()

    if isinstance(desc, FullS):
        probes = _probe_full_style(desc, budgets)
        return _label("C_S", True,
                      "full-symmetric", [], probes, budgets)

    if isinstance(desc, TrivialG):
        return _label("C_1", True, "trivial-group", [], [], budgets)

    if isinstance(desc, PartitionStab):
        return _classify_partition_stab(desc, budgets)

    if isinstance(desc, PointwiseStab):
        # G_(Γ)_(Δ) = G_(Γ ∪ Δ): nested fixes are one fix of the union, and
        # each of statements (i)-(iv) holds for G_(Γ) exactly when it holds
        # for G, so G_(Γ) takes G's record
        base, fixed = _peel(desc)
        gamma = sorted(fixed)
        if isinstance(base, PartitionStab) and \
                base.A.profile.label in ("C_Q", "C_P") and \
                gamma != list(range(len(gamma))):
            return _classify_window(base, gamma, budgets)
        inner = classify_group(base, budgets)
        return _label(inner.label, inner.certified, "pointwise-stabilizer",
                      gamma, [], budgets, {"inner": inner.evidence()})

    if isinstance(desc, FNGroup):
        return _classify_fn(desc, budgets)

    if isinstance(desc, FiniteSupportG):
        gamma, probes, samples = _finite_claims(desc.gens)
        return _label("C_1", True, "finite-group", gamma, probes, budgets, samples)

    if isinstance(desc, OracleG):
        probes = _probe_full_style(desc, budgets)
        return _label("Unknown", False, "no-certificate", [], probes, budgets)

    raise PreconditionError(f"no classifier for {desc!r}")


PROBED_BLOCKS = 4  # the sampled blocks of a C_Q or C_P record that it probes
# the blocks a C_P and a C_Q record sample; a longer list is refused unread
SAMPLED_BLOCKS = {"C_P": 6, "C_Q": 4}
# the paper's worked C_Q examples: fn(d) is C_Q when d declares CaseIII
WORKED_EXAMPLES = ("standard-omega", "standard-z")


def _classify_partition_stab(desc: PartitionStab, budgets: Budgets) -> ClassLabel:
    """The class of desc's declared profile, with its evidence."""
    A, profile = desc.A, desc.A.profile
    label = profile.label
    if label == "C_S":
        # every finite set leaves an infinite orbit inside the declared block
        probes = []
        block = A.block_of(profile.block)
        for gamma in _initial_segments(budgets):
            block_pt = A.free_points(block, set(gamma), 1)[0]
            probes.append(orbit(desc, gamma, block_pt, budgets.orbit_budget))
        return _label("C_S", True, "partition-infinite-block", [], probes,
                      budgets, {"block": profile.block})
    if label == "C_1":
        # finitely many nonsingletons: the stabilizer of their union is
        # trivial.  One metered walk takes them and spot-checks a window past
        # them for one more, so a profile that declares more than exist stops
        # at the meter and one that declares fewer raises; every block it
        # reads must keep the declared size bound.
        count = profile.nonsingletons if isinstance(profile.nonsingletons, int) else 0

        def members(b):
            out = A.block_members(b)
            A._check_size(b, len(out))
            return out
        with metered():
            blocks = A.iter_blocks()
            found = (m for m in map(members, blocks) if len(m) > 1)
            union = sorted(a for m in itertools.islice(found, count) for a in m)
            end = (union[-1] + 1 if union else 0) + budgets.samples * 4
            for b in itertools.takewhile(lambda b: b < end, blocks):
                if len(members(b)) > 1:
                    raise ProfileViolationError(
                        f"{A.key}: block {b} is a nonsingleton past the "
                        f"{count} declared")
        return _label("C_1", True, "partition-finite-nonsingletons", union, [],
                      budgets, {"nonsingleton_count": count})
    if label == "C_P":
        ids = A.sample_growing_blocks(SAMPLED_BLOCKS["C_P"])
        growing = [[b, A.block_size(b)] for b in ids]
        probes = [orbit(desc, [], b, budgets.orbit_budget)
                  for b in ids[:PROBED_BLOCKS]]
        return _label("C_P", True, "partition-profile-unbounded", [], probes,
                      budgets, {"growing_blocks": growing})
    blocks = A.sample_bounded_blocks(SAMPLED_BLOCKS["C_Q"])
    probes = [orbit(desc, [], b, budgets.orbit_budget)
              for b, _ in blocks[:PROBED_BLOCKS]]
    return _label("C_Q", True, "partition-profile-bounded", [], probes,
                  budgets, {"bound": profile.n, "nonsingleton_blocks": blocks})


def _classify_window(desc: PartitionStab, gamma: Sequence[int],
                     budgets: Budgets) -> ClassLabel:
    """fix(desc;Γ) for a C_Q or C_P profile and a finite Γ that is not an
    initial segment, answered at the window budget: Γ pins finitely many
    blocks, so report what the probes can actually certify."""
    A, gset, window = desc.A, set(gamma), budgets.samples * 4
    blocks = A.blocks_within(window)
    unmet = [b for b in blocks if len(set(A.block_members(b)) - gset) >= 2]
    step = max(1, window // budgets.samples)
    probes = [orbit(desc, gset, alpha, budgets.orbit_budget)
              for alpha in range(0, window, step)[:budgets.samples]]
    if not unmet:
        return _label("C_1", False, "budget-trivial", sorted(gset), probes,
                      budgets, {"window": window, "blocks_checked": len(blocks)})
    return _label(A.profile.label, False, "budget-surviving-orbits",
                  sorted(gset), probes, budgets,
                  {"window": window, "unmet_blocks": unmet[:16]})


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
    samples = {"metric": m.key, "metric_case": m.case or "Unknown"}
    if m.key in WORKED_EXAMPLES and m.case == "CaseIII":
        return _label("C_Q", True, "fn-worked-example", [], [], budgets, samples)
    return _label("Unknown", False, "fn-open", [], [], budgets, samples)


# --------------------------------------------------------------------------
# Discreteness and compactness.


@dataclass
class Verdict:
    answer: str  # "yes" | "no" | "unknown"
    basis: str
    evidence: dict


def _peel(desc: Descriptor):
    """desc with every fix(…) removed, and the union of the removed sets.
    H = G_(Γ) has H_(Δ) = G_(Γ ∪ Δ), so each of statements (i)-(iv) holds
    for H exactly when it holds for G."""
    fixed = set()
    while isinstance(desc, PointwiseStab):
        fixed |= set(desc.gamma)
        desc = desc.inner
    return desc, fixed


def discreteness(desc: Descriptor, budgets: Optional[Budgets] = None) -> Verdict:
    """Is some finite-set stabilizer trivial?  Statement (iv), read off the
    certified class of desc with every fix(…) peeled: it holds exactly in
    C_1.  The witnesses of a ``no`` are orbits that the peeled group's record
    probed, so the evidence names a nonempty peeled set.  A metric with every
    distance finite gives every transposition a finite norm, so its group is
    not discrete either."""
    desc, fixed = _peel(desc)
    peeled = {"peeled": sorted(fixed)} if fixed else {}
    budgets = budgets or Budgets()
    if isinstance(desc, FNGroup) and desc.metric.all_finite:
        witnesses = [{"gamma": g, "moved": [len(g), len(g) + 1]}
                     for g in _initial_segments(budgets)]
        return Verdict("no", "transpositions beyond any finite set have "
                             "finite norm", {"witnesses": witnesses, **peeled})
    lab = classify_group(desc, budgets)
    if lab.certified and lab.label == "C_1":
        return Verdict("yes", "certified C_1: fixing gamma pins everything",
                       {"gamma": sorted(fixed.union(lab.gamma)), **peeled})
    if lab.certified:
        witnesses = [{"gamma": p.gamma, "moved": p.points[:2]}
                     for p in lab.probes if len(p.points) >= 2]
        return Verdict("no", f"certified {lab.label}: no finite set has a "
                             "trivial stabilizer", {"witnesses": witnesses, **peeled})
    return Verdict("unknown", "no certificate either way", peeled)


def compactness_criterion(desc: Descriptor,
                          budgets: Optional[Budgets] = None) -> Verdict:
    """Compact iff closed with every orbit finite, for desc with every
    fix(…) peeled.  A closed subgroup of a compact group is compact, and a
    certified C_S has an infinite orbit at every finite set (statement
    (i))."""
    desc, _ = _peel(desc)
    closed, closed_basis = _closed_flag(desc)
    evidence = {"closed": closed, "closed_basis": closed_basis}
    if closed is False:
        return Verdict("no", "not closed in the function topology", evidence)
    # a partition metric has finite blocks; its group is their stabilizer
    finite_orbits = (isinstance(desc, (TrivialG, FiniteSupportG))
                     or isinstance(desc, FNGroup) and (
                         desc.metric.discrete_infinite
                         or isinstance(desc.metric, PartitionMetric))
                     or isinstance(desc, PartitionStab)
                     and desc.A.profile.label != "C_S")
    if finite_orbits:
        return Verdict("yes", "closed with every orbit finite by construction",
                       evidence)
    lab = classify_group(desc, budgets)
    if lab.certified and lab.label == "C_S":
        return Verdict("no", "certified C_S: an orbit is infinite", evidence)
    return Verdict("unknown", "no certificate either way", evidence)


def _closed_flag(desc: Descriptor):
    if isinstance(desc, (FullS, TrivialG, PartitionStab, FiniteSupportG)):
        return True, "closed by construction"
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
# Evidence replay.  Each basis's checker tests a record's claims against the
# descriptor by its own route and returns the (label, certified, gamma,
# probes, samples) they establish; the record is accepted only if rebuilding
# it from those gives it back.  Probes are recomputed with orbit, a fixed
# number per record, so a replay costs no more than the record's budgets and
# its length allow.


def _require(ok) -> None:
    if not ok:
        raise ValueError("a record claim does not hold")


def _replay(desc: Descriptor, record: dict, budgets: Budgets) -> ClassLabel:
    _, kind, check = BASES[record["basis"]]
    _require(isinstance(desc, kind))
    label, certified, gamma, probes, samples = check(desc, record, budgets)
    lab = _label(label, certified, record["basis"], gamma, probes, budgets, samples)
    _require(lab.evidence() == record)
    return lab


def _check_partition(label, desc, record, budgets):
    """A record that desc's profile has class ``label``, whose claims,
    re-read through block_of, block_size and block_members, obey the
    profile."""
    A, probes = desc.A, []
    _require(A.profile.label == label)
    if label == "C_S":
        # each probe's point lies in the declared block, off its initial segment
        for gamma, probe in zip(_initial_segments(budgets), record["probes"], strict=True):
            _require(probe["alpha"] not in gamma and A.block_of(probe["alpha"]) == A.profile.block)
            probes.append(orbit(desc, gamma, probe["alpha"], budgets.orbit_budget))
        return "C_S", True, [], probes, {"block": A.profile.block}
    if label == "C_1":
        # the declared count is true (a partition file is refused otherwise),
        # so γ is the union of every nonsingleton when that many blocks of two
        # or more points, each inside the size bound, make it up; a γ longer
        # than they can hold is refused unread
        gamma = record["gamma"]
        count = A.profile.nonsingletons if isinstance(A.profile.nonsingletons, int) else 0
        _require(len(gamma) <= count * A.profile.n)
        blocks = {b: A.block_members(b) for b in map(A.block_of, gamma)}
        for b, members in blocks.items():
            A._check_size(b, len(members))
        _require(len(blocks) == count and all(len(m) > 1 for m in blocks.values())
                 and sorted(a for m in blocks.values() for a in m) == gamma)
        return "C_1", True, gamma, [], {"nonsingleton_count": count}
    # at most the producer's count of sampled [id, size] blocks: increasing
    # ids, each its block's, with sizes growing for C_P and in [2, n] for C_Q;
    # the first few are probed
    key = "growing_blocks" if label == "C_P" else "nonsingleton_blocks"
    blocks = record["samples"][key]
    _require(len(blocks) <= SAMPLED_BLOCKS[label])
    ids, sizes = [b for b, _ in blocks], [n for _, n in blocks]
    _require(ids == sorted(set(ids)) and all(
        A.block_of(b) == b and A.block_size(b) == n for b, n in blocks))
    probes = [orbit(desc, [], b, budgets.orbit_budget) for b in ids[:PROBED_BLOCKS]]
    if label == "C_P":
        _require(sizes == sorted(set(sizes)))
        return "C_P", True, [], probes, {key: blocks}
    _require(all(2 <= n <= A.profile.n for n in sizes))
    return "C_Q", True, [], probes, {"bound": A.profile.n, key: blocks}


def _check_pointwise(desc, record, budgets):
    base, fixed = _peel(desc)
    inner = _replay(base, record["samples"]["inner"], budgets)
    return inner.label, inner.certified, sorted(fixed), [], {"inner": inner.evidence()}


def _check_window(desc, record, budgets):
    base, fixed = _peel(desc)
    _require(isinstance(base, PartitionStab))
    lab = _classify_window(base, sorted(fixed), budgets)
    _require(lab.basis == record["basis"])
    return lab.label, lab.certified, lab.gamma, lab.probes, lab.samples


def _check_fn(desc, record, budgets):
    """A record rebuilt from the metric's declarations alone, under the one
    basis they select: the discrete metric's trivial group, a worked C_Q
    example of the paper, or fn-open, which names the declared case."""
    m, basis = desc.metric, record["basis"]
    _require(not isinstance(m, PartitionMetric)
             and m.discrete_infinite == (basis == "fn-discrete"))
    if basis == "fn-discrete":
        return "C_1", True, [], [], {"metric": m.key}
    worked = m.key in WORKED_EXAMPLES and m.case == "CaseIII"
    _require(worked == (basis == "fn-worked-example"))
    samples = {"metric": m.key, "metric_case": m.case or "Unknown"}
    return ("C_Q", True, [], [], samples) if worked else \
        ("Unknown", False, [], [], samples)


def _check_fn_partition(desc, record, budgets):
    m = desc.metric
    _require(isinstance(m, PartitionMetric))
    inner = _replay(PartitionStab(m.partition, m.partition.key),
                    record["samples"]["inner"], budgets)
    return inner.label, inner.certified, inner.gamma, inner.probes, \
        {"inner": inner.evidence(), "metric": m.key}


# basis -> (the function whose _label call emits it, the descriptor class it
# describes, its checker)
BASES = {
    "full-symmetric": (classify_group, FullS, lambda d, r, b: (
        "C_S", True, [], _probe_full_style(d, b), {})),
    "trivial-group": (classify_group, TrivialG, lambda d, r, b: (
        "C_1", True, [], [], {})),
    "no-certificate": (classify_group, OracleG, lambda d, r, b: (
        "Unknown", False, [], _probe_full_style(d, b), {})),
    "finite-group": (classify_group, FiniteSupportG, lambda d, r, b: (
        "C_1", True, *_finite_claims(d.gens))),
    "pointwise-stabilizer": (classify_group, PointwiseStab, _check_pointwise),
    "partition-infinite-block": (_classify_partition_stab, PartitionStab,
                                 functools.partial(_check_partition, "C_S")),
    "partition-finite-nonsingletons": (_classify_partition_stab, PartitionStab,
                                       functools.partial(_check_partition, "C_1")),
    "partition-profile-unbounded": (_classify_partition_stab, PartitionStab,
                                    functools.partial(_check_partition, "C_P")),
    "partition-profile-bounded": (_classify_partition_stab, PartitionStab,
                                  functools.partial(_check_partition, "C_Q")),
    "budget-trivial": (_classify_window, PointwiseStab, _check_window),
    "budget-surviving-orbits": (_classify_window, PointwiseStab, _check_window),
    "fn-partition": (_classify_fn, FNGroup, _check_fn_partition),
    "fn-discrete": (_classify_fn, FNGroup, _check_fn),
    "fn-worked-example": (_classify_fn, FNGroup, _check_fn),
    "fn-open": (_classify_fn, FNGroup, _check_fn),
}


def check_evidence(desc_str: str, evidence: dict) -> bool:
    """Accept a record only if the checker of its basis in ``BASES``
    rebuilds it from the descriptor and the record's own claims; a record
    of another basis, or of a shape its checker cannot read, is rejected."""
    try:
        _replay(parse_descriptor(desc_str), evidence, Budgets(**evidence["budgets"]))
        return True
    except (SymkitError, TypeError, ValueError, LookupError):
        return False
