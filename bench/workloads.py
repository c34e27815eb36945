"""The three workloads: seeded query generators, the queries and their checks.

A workload is a list of cells, each a query class with the parameters that
set its cost.  Every cycle of the generator runs each cell once, in an order
shuffled by the seed, and the seed draws every other input.  So all seeds
give the same mix of costs and differ in the points, permutations and
descriptors asked about.

A query calls only public functions of symkit's layers, through the tracer,
and builds its own objects as one CLI invocation would.  The one exception is
metric-search's refined metrics, which live for the whole run so that their
neighbor caches stay warm.  The answer a query returns is checked against
``reference`` outside the timed span.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
from collections import namedtuple
from fractions import Fraction

from symkit import (
    classifier,
    cli,
    localdecomp,
    metrics,
    partitions,
    perm,
    trees,
    witnesses,
)

import reference as ref

WINDOW = 1000
# larger than every ball metric-search asks for (sqrt at 24576 with radius 8
# holds about 5,000 points), so no ball query is refused as crowded
BALL_CAP = 1 << 16
# perm's own forms, by the name their window spans carry
_PERM_FORMS = {"cycles": "finite", "rule": "rule", "word": "word", "limit": "limit"}


def _window(tr, p, points):
    """Evaluate p on points: one batch span, booked to the layer whose module
    defines p's class.  perm's own objects are named by form; an object of
    another layer (a local factor, a half restriction, a crosser pairing)
    does its lazy work inside forward, so its span is that layer's
    ``<layer>.forward``."""
    layer = type(p).__module__.rpartition(".")[2]
    name = f"perm.forward.{_PERM_FORMS[p.form]}" if layer == "perm" else f"{layer}.forward"
    fwd = p.forward
    return tr.batch(name, len(points), lambda: [fwd(x) for x in points])


def _random_finite(rng, span, moves):
    pts = rng.sample(range(span), moves)
    img = pts[:]
    rng.shuffle(img)
    return {a: b for a, b in zip(pts, img) if a != b}


# -- lazy-eval ---------------------------------------------------------------

def gen_decompose(rng, form):
    if form == "finite":
        return {"form": form,
                "mapping": _random_finite(rng, 500, rng.randrange(10, 80))}
    return {"form": form, "size": rng.randrange(2, 9)}


def _lazy_perm(d):
    if d["form"] == "finite":
        return perm.FiniteSupportPermutation(d["mapping"])
    rotate = perm.rule("block-rotate", size=d["size"])
    return rotate if d["form"] == "rule" else perm.word(rotate, perm.rule("swap-pairs"))


def run_decompose(d, ctx, tr):
    f = _lazy_perm(d)
    g, h = tr.call("localdecomp.decompose_local", localdecomp.decompose_local, f, 8)
    f_vals = _window(tr, f, range(WINDOW))
    g_vals = _window(tr, g, range(WINDOW))
    hg_vals = _window(tr, h, g_vals)
    return f_vals, g_vals, hg_vals, list(g.bp.a)


def check_decompose(d, answer):
    if d["form"] == "finite":
        f = ref.finite(d["mapping"])
        finv = ref.finite(ref.inverse_mapping(d["mapping"]))
    else:
        size, swap = d["size"], d["form"] == "word"

        def f(m):
            m = ref.block_rotate(m, size)
            return ref.swap_pairs(m) if swap else m

        def finv(m):
            return ref.block_rotate(ref.swap_pairs(m) if swap else m, size, -1)
    return ref.check_decompose(f, finv, WINDOW, answer)


def gen_tree(rng, depth):
    return {"depth": depth,
            "choices": [[rng.randrange(2) for _ in range(depth)] for _ in range(4)]}


def run_tree(d, ctx, tr):
    depth = d["depth"]
    oracle = trees.PartitionStabilizerOracle(partitions.a0())
    tree = tr.call("trees.build_tree", trees.build_tree, oracle, "binary", depth)
    tr.call("trees.verify_invariants", tree.verify_invariants)
    images = []
    for bits in d["choices"]:
        g = tr.call("trees.branch_limit", trees.branch_limit, tree, bits)
        images.append(_window(tr, g, range(4 * depth + 4)))
    return list(tree.alphas), list(tree.betas), len(tree.nodes), images


def check_tree(d, answer):
    return ref.check_tree(d["depth"], d["choices"], answer)


def gen_factor(rng, _):
    """Shuffles inside the first six blocks of intervals-growing (sizes 1-6)."""
    mapping = {}
    for k in range(6):
        members = list(range(ref.tri(k), ref.tri(k + 1)))
        images = members[:]
        rng.shuffle(images)
        mapping.update({a: b for a, b in zip(members, images) if a != b})
    return {"mapping": mapping}


def run_factor(d, ctx, tr):
    A, B = partitions.intervals_growing(), partitions.intervals_growing()
    w = tr.call("witnesses.p_equiv_witness", witnesses.p_equiv_witness, A, B, 6)
    h = perm.FiniteSupportPermutation(d["mapping"])
    p, q = tr.call("witnesses.factor_through", witnesses.factor_through,
                   h, w, B, WINDOW)
    p_vals = _window(tr, p, range(WINDOW))
    qp_vals = _window(tr, q, p_vals)
    memberships = []
    for factor, wit in ((p, w.f), (q, w.g)):
        conj = tr.call("perm.conjugate", perm.conjugate, wit.inverse(), factor)
        rep = tr.call("partitions.stabilizer_membership",
                      partitions.stabilizer_membership, conj, A, 400)
        memberships.append(rep.answer)
    return p_vals, qp_vals, memberships


def check_factor(d, answer):
    return ref.check_factor(d["mapping"], WINDOW, answer)


def gen_flow(rng, _):
    return {"mapping": _random_finite(rng, 40, 8), "k": rng.randrange(-3, 4)}


def run_flow(d, ctx, tr):
    t = perm.rule("shift-z")
    k = d["k"]
    shift = [t] * k if k >= 0 else [t.inverse()] * -k
    f = perm.word(perm.FiniteSupportPermutation(d["mapping"]),
                  *(shift or [t, t.inverse()]))
    flow = tr.call("metrics.net_flow", metrics.net_flow, f, range(-24, 25))
    return flow.common_value, sorted(set(flow.per_cut.values()))


def check_flow(d, answer):
    """The finite part carries no flow and each shift carries 1."""
    return answer == (d["k"], [d["k"]])


def gen_parity(rng, _):
    return {"a": _random_finite(rng, 60, rng.randrange(4, 16)),
            "b": _random_finite(rng, 60, rng.randrange(4, 16))}


def run_parity(d, ctx, tr):
    f = perm.word(perm.FiniteSupportPermutation(d["a"]),
                  perm.FiniteSupportPermutation(d["b"]))
    return tr.call("perm.parity", perm.parity, f)


def check_parity(d, answer):
    return answer == ("even" if ref.is_even(ref.compose([d["a"], d["b"]])) else "odd")


# -- metric-search -------------------------------------------------------------

# the four c2 configurations: (base metric, U) for the library and the same
# base and moves, as (forward, backward) functions, for the reference search
REFINE_CONFIGS = [
    ("standard-omega", ["rule:swap-pairs"]),
    ("partition@pairs", ["rule:swap-pairs", "cycles:(0 2)"]),
    ("partition@a0", ["rule:shift-z", "cycles:(1 4)", "rule:swap-pairs"]),
    ("partition@intervals-growing", ["rule:swap-pairs", "cycles:(0 3)"]),
]
_SWAP = (ref.swap_pairs, ref.swap_pairs)
REF_REFINE_CONFIGS = [
    ("standard-omega", [_SWAP]),
    ("pairs", [_SWAP, (ref.finite({0: 2, 2: 0}),) * 2]),
    ("a0", [(ref.shift_z, lambda m: ref.shift_z(m, -1)),
            (ref.finite({1: 4, 4: 1}),) * 2, _SWAP]),
    ("intervals-growing", [_SWAP, (ref.finite({0: 3, 3: 0}),) * 2]),
]


def refined_metrics():
    return [metrics.refine_metric(metrics.parse_metric(base),
                                  [perm.parse_perm(u) for u in U])
            for base, U in REFINE_CONFIGS]


def gen_refine(rng, cell):
    temp, config, radius = cell
    span = 400 if temp == "hot" else 10 ** 6
    a = rng.randrange(span)
    # half the pairs are close, so that exact distances get checked as well
    b = max(0, a + rng.randrange(-6, 7)) if rng.random() < 0.5 else rng.randrange(span)
    return {"temp": temp, "config": config, "radius": radius, "a": a, "b": b}


def run_refine(d, ctx, tr):
    refined = ctx[d["config"]]
    res = tr.call(f"metrics.refine.{d['temp']}", refined.dist_budgeted,
                  d["a"], d["b"], Fraction(d["radius"]))
    tr.count("metrics.refine.attempts")
    if res.kind == "exact":
        tr.count("metrics.refine.exact")
    return res.kind, res.value


def check_refine(d, answer):
    base, moves = REF_REFINE_CONFIGS[d["config"]]
    return answer == ref.refined_distance(base, moves, d["a"], d["b"], d["radius"])


BALL_METRICS = {
    "standard-omega": "standard-omega", "standard-z": "standard-z",
    "sqrt": "sqrt", "ultra-base2": "ultra-base2", "cayley-z2": "cayley-z2",
    "cayley-f2": "cayley-f2", "discrete": "discrete",
    "partition": "partition@intervals-growing",
}
# classify_metric's probe range: the naturals below 496 and the powers of two
# (and their halfway points 3 * 2^(k-1)) up to 2^14
SMALL_CENTERS = range(496)
LARGE_CENTERS = sorted({v for k in range(8, 15) for v in (2 ** k, 3 * 2 ** (k - 1))
                        if v >= 496})


def gen_ball(rng, cell):
    key, radius, large = cell
    center = rng.choice(LARGE_CENTERS) if large else rng.choice(SMALL_CENTERS)
    return {"key": key, "radius": radius, "center": center}


def run_ball(d, ctx, tr):
    key = d["key"]
    m = tr.call("metrics.parse_metric", metrics.parse_metric, BALL_METRICS[key])
    points = tr.call(f"metrics.ball.{key}", m.ball, d["center"],
                     Fraction(d["radius"]), BALL_CAP)
    tr.count(f"metrics.ball.{key}.points", len(points))
    blocks = None
    if key == "partition":
        block_of = m.partition.block_of
        blocks = tr.batch("partitions.block_of", len(points),
                          lambda: [block_of(x) for x in points])
    return points, blocks


def check_ball(d, answer):
    points, blocks = answer
    if not ref.check_ball(d["key"], d["center"], d["radius"], points):
        return False
    if blocks is None:
        return d["key"] != "partition"
    return set(blocks) == {ref.PARTITIONS["intervals-growing"][0](d["center"])}


def gen_norm(rng, _):
    """c8's permutations: 250 random adjacent swaps that keep every
    displacement small, on [0, 600)."""
    arr = list(range(600))
    for _ in range(250):
        i = rng.randrange(599)
        if abs(arr[i + 1] - i) <= 4 and abs(arr[i] - (i + 1)) <= 4:
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
    return {"mapping": {i: arr[i] for i in range(600) if arr[i] != i}}


def run_norm(d, ctx, tr):
    f = perm.FiniteSupportPermutation(d["mapping"])
    omega = metrics.parse_metric("standard-omega")
    rep = tr.call("metrics.norm", metrics.norm, f, omega, 610)
    b1, b2 = tr.call("metrics.factor_fn_omega", metrics.factor_fn_omega, f)
    b1_vals = _window(tr, b1, range(WINDOW))
    b2_vals = _window(tr, b2, b1_vals)
    return rep.certificate, rep.bound, b1_vals, b2_vals


def check_norm(d, answer):
    return ref.check_norm_factor(d["mapping"], WINDOW, answer)


# -- classify-replay -----------------------------------------------------------

FIX_PARTITIONS = ["pairs", "a0", "intervals-growing"]
FINITE_BLOCK_PARTITIONS = sorted(p for p in ref.PARTITIONS if p != "evens-block")


def _cycles_text(cycles):
    return "cycles:" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def gen_desc(rng, kind):
    """(reference form, descriptor string) for one descriptor kind."""
    if isinstance(kind, tuple):
        return _gens_desc(rng, *kind[1:])
    if kind in ("full", "trivial"):
        return (kind,), kind
    if kind == "stab":
        part = rng.choice(sorted(ref.PARTITIONS))
        return ("stab", part), f"stab:partition:{part}"
    if kind.startswith("fix-"):
        part = rng.choice(FIX_PARTITIONS)
        if kind == "fix-initial":
            gamma = list(range(rng.randrange(1, 261)))
        elif kind == "fix-random":
            gamma = rng.sample(range(600), rng.randrange(1, 261))
        else:   # pin all but one point of every block meeting the window
            block_of, members, _ = ref.PARTITIONS[part]
            gamma = []
            for b in sorted({block_of(a) for a in range(ref.FIX_WINDOW)}):
                mem = members(b)
                if len(mem) > 1:
                    gamma += rng.sample(mem, len(mem) - 1)
            gamma += rng.sample(range(300, 600), max(0, 260 - len(gamma)) // 2)
        text = ",".join(map(str, gamma))
        return ("fix", part, gamma), f"fix(stab:partition:{part};{text})"
    if kind.startswith("fn:"):
        metric = kind[3:]
        if metric == "partition":
            metric = "partition@" + rng.choice(FINITE_BLOCK_PARTITIONS)
        return ("fn", metric), f"fn:{metric}"
    raise ValueError(f"unknown descriptor kind {kind!r}")


def _gens_desc(rng, family, n):
    """Generators on a random n-point support from a family of known order."""
    support = rng.sample(range(64), n)
    if family == "sym":
        cycles = [support, support[:2]]
        text = f"{_cycles_text([support])},{_cycles_text([support[:2]])}"
    else:
        cycles = [support]
        if family == "disjoint":
            cycles, rest = [], support
            while rest:
                size = rng.randrange(2, len(rest) - 1) if len(rest) >= 4 else len(rest)
                cycles.append(rest[:size])
                rest = rest[size:]
        text = _cycles_text(cycles)
    return ("gens", family, cycles), f"gens:[{text}]"


def gen_classify(rng, kind):
    desc, text = gen_desc(rng, kind)
    return {"desc": desc, "text": text}


def run_classify(d, ctx, tr):
    text = d["text"]
    desc = tr.call("classifier.parse_descriptor", classifier.parse_descriptor, text)
    label = tr.call(f"classifier.classify_group.{desc.kind}",
                    classifier.classify_group, desc)
    evidence = json.loads(json.dumps(label.evidence(), default=str))
    replay = tr.call("classifier.check_evidence", classifier.check_evidence,
                     text, evidence)
    tr.count("classifier.classified")
    if label.label == "Unknown":
        tr.count("classifier.unknown")
    return label.label, evidence["samples"].get("order"), replay


def check_classify(d, answer):
    label, order, replay = answer
    desc = d["desc"]
    if desc[0] == "gens" and order != ref.group_order(desc[1], desc[2]):
        return False
    return replay is True and label == ref.desc_label(desc)


def gen_orbit(rng, kind):
    desc, text = gen_desc(rng, kind)
    if desc[0] == "gens":
        support = sorted({x for c in desc[2] for x in c})
        gamma = rng.sample(support, rng.randrange(3))
        alpha = rng.choice(support) if rng.random() < 0.9 else rng.randrange(64)
    else:
        gamma = rng.sample(range(64), rng.randrange(4))
        alpha = rng.randrange(64)
    return {"desc": desc, "text": text, "gamma": gamma, "alpha": alpha}


def _partition_key(desc):
    if desc[0] in ("stab", "fix"):
        return desc[1]
    if desc[0] == "fn" and desc[1].startswith("partition@"):
        return desc[1][len("partition@"):]
    return None


def run_orbit(d, ctx, tr):
    desc = tr.call("classifier.parse_descriptor", classifier.parse_descriptor,
                   d["text"])
    rep = tr.call("classifier.orbit", classifier.orbit, desc, d["gamma"], d["alpha"])
    blocks = None
    part = _partition_key(d["desc"])
    if part is not None and rep.kind == "full":
        block_of = partitions.parse_partition(part).block_of
        blocks = tr.batch("partitions.block_of", len(rep.points),
                          lambda: [block_of(x) for x in rep.points])
    return rep.kind, rep.size, rep.points, blocks


def check_orbit(d, answer):
    kind, size, points, blocks = answer
    if (kind, points) != ref.orbit(d["desc"], d["gamma"], d["alpha"]) or size != len(points):
        return False
    part = _partition_key(d["desc"])
    if part is None or kind != "full":
        return blocks is None
    return set(blocks) == {ref.PARTITIONS[part][0](d["alpha"])}


def gen_sfinite(rng, n):
    """Two random permutations of a random n-point support (n = 0: identities)."""
    if n == 0:
        return {"gens": [{}, {}]}
    support = rng.sample(range(64), n)
    gens = []
    for _ in range(2):
        images = support[:]
        rng.shuffle(images)
        gens.append({a: b for a, b in zip(support, images) if a != b})
    return {"gens": gens}


def run_sfinite(d, ctx, tr):
    gens = [perm.FiniteSupportPermutation(m) for m in d["gens"]]
    return tr.call("witnesses.sfinite_class", witnesses.sfinite_class, gens)


def check_sfinite(d, answer):
    return answer == ref.sfinite_class(d["gens"])


def _lines(*want):
    return lambda out: all(w in out.splitlines() for w in want)


def _json_full(out):
    payload = json.loads(out)
    return payload["label"] == "C_S" and payload["replay_ok"] is True


def _three_cycle(out):
    line = out.strip()
    if not line.startswith("commutator: cycles:(") or line.count("(") != 1:
        return False
    return sorted(map(int, line[len("commutator: cycles:("):-1].split())) == [0, 1, 2]


def _injective_maps(*prefixes):
    """Each named line is a map a>b,... with distinct images."""
    def check(out):
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        for prefix in prefixes:
            body = lines[prefix]
            if not body.startswith("map:"):
                return False
            pairs = [tuple(map(int, p.split(">"))) for p in body[4:].split(",")]
            if len({b for _, b in pairs}) != len(pairs):
                return False
        return True
    return check


# the README CLI examples, except `metric classify sqrt` (see README.md), with
# the exit code and output the README and the construction fix
CLI_EXAMPLES = [
    ('classify "stab:partition:pairs"', 0, _lines("label: C_Q")),
    ("--json classify full", 0, _json_full),
    ('orbit "stab:partition:pairs" --gamma 1 --alpha 0', 0,
     _lines("kind: full", "size: 1", "points: [0]")),
    ('metric norm standard-omega --perm "cycles:(0 5)"', 0,
     _lines("lower_bound: 5", "certificate: finite")),
    ("metric flow standard-z --perm rule:shift-z", 0, _lines("common_value: 1")),
    ("metric refine standard-omega --u rule:swap-pairs --pairs 0:3 --radius 5", 0,
     _lines("0..3: exact 3")),
    ('local decompose --perm "cycles:(0 1 2)"', 0,
     _lines("product ok on window 64: True")),
    ("local check --perm rule:shift-z", 2, _lines("answer: no-at-budget")),
    ('witness three-cycle --perm "cycles:(0 1)" --perm-b "cycles:(1 2)"', 0,
     _three_cycle),
    ("witness commutator --pattern 0101", 0, _lines("matches: True")),
    ("witness p-equiv --partition intervals-growing --depth 4", 0,
     _injective_maps("f", "g")),
    ("witness even-shift --partition spread", 0, _injective_maps("witness")),
    ("tree build --mode binary --depth 6 --oracle stab-a0", 0,
     _lines("depth: 6", "nodes: 127", "alphas: [0, 4, 8, 12, 16, 20]")),
    ("tree branch --mode binary --depth 6 --oracle stab-a0 --choice 101010", 0,
     _lines("pivot images: {0: 1, 4: 4, 8: 9, 12: 12, 16: 17, 20: 20}")),
    ('perm eval --perm "word:[cycles:(0 1),cycles:(1 2)]" --point 0', 0,
     _lines("0 -> 2")),
]


def gen_cli(rng, index):
    return {"argv": shlex.split(CLI_EXAMPLES[index][0]), "index": index}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli(d, ctx, tr):
    return tr.call("cli.cli_main", _cli, d["argv"])


def check_cli(d, answer):
    code, out, err = answer
    _, want_code, check = CLI_EXAMPLES[d["index"]]
    return code == want_code and err == "" and check(out)


# -- the workloads -------------------------------------------------------------

QUERIES = {
    "decompose": (gen_decompose, run_decompose, check_decompose),
    "tree": (gen_tree, run_tree, check_tree),
    "factor": (gen_factor, run_factor, check_factor),
    "flow": (gen_flow, run_flow, check_flow),
    "parity": (gen_parity, run_parity, check_parity),
    "refine-hot": (gen_refine, run_refine, check_refine),
    "refine-cold": (gen_refine, run_refine, check_refine),
    "ball": (gen_ball, run_ball, check_ball),
    "norm": (gen_norm, run_norm, check_norm),
    "classify": (gen_classify, run_classify, check_classify),
    "orbit": (gen_orbit, run_orbit, check_orbit),
    "sfinite": (gen_sfinite, run_sfinite, check_sfinite),
    "cli": (gen_cli, run_cli, check_cli),
}

Workload = namedtuple("Workload", "cells context")

_DESC_KINDS = (["full", "trivial", "stab", "fix-cover", "fix-random", "fix-initial",
                "fn:standard-omega", "fn:standard-z", "fn:discrete", "fn:partition"]
               + [("gens", family, n) for family in ("sym", "cyclic", "disjoint")
                  for n in range(3, 9)])

WORKLOADS = {
    "lazy-eval": Workload(
        [("decompose", "finite")] * 6 + [("decompose", "rule"), ("decompose", "word")]
        + [("tree", depth) for depth in range(4, 9)]
        + [("factor", None), ("parity", None)] * 2 + [("flow", None)],
        lambda: None),
    "metric-search": Workload(
        [("refine-hot", ("hot", c, r)) for c in range(4) for r in (2, 3, 4)] * 4
        + [("refine-cold", ("cold", c, r)) for c in range(3) for r in (2, 3, 4)] * 2
        + [("ball", (key, r, large)) for key in BALL_METRICS for r in (1, 2, 4, 8)
           for large in (False, True)]
        + [("norm", None)] * 2,
        refined_metrics),
    "classify-replay": Workload(
        [("classify", kind) for kind in _DESC_KINDS]
        + [("orbit", kind) for kind in _DESC_KINDS]
        + [("sfinite", n) for n in (0, 3, 4, 5, 6, 7, 8)]
        + [("cli", i) for i in range(len(CLI_EXAMPLES))],
        lambda: None),
}


def queries(name, seed):
    """Endless (class, inputs) pairs for a workload, drawn from the seed."""
    rng = random.Random(f"{name}/{seed}")
    cells = WORKLOADS[name].cells
    while True:
        order = cells[:]
        rng.shuffle(order)
        for cls, param in order:
            yield cls, QUERIES[cls][0](rng, param)


def cycle_length(name):
    return len(WORKLOADS[name].cells)

