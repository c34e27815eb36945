"""Command-line surface: classification, metrics, witnesses, trees, and
permutation plumbing, with JSON evidence output.

Exit status: 0 for certified answers, 2 for uncertified or unknown-at-budget
answers, 1 for errors (including malformed descriptor strings).
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction

from . import classifier, localdecomp, metrics, partitions, perm, trees, witnesses
from .errors import ParseError, SymkitError


def _emit(args, payload: dict, lines=None) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in lines or [f"{k}: {v}" for k, v in payload.items()]:
            print(line)


def _radius(text: str) -> Fraction:
    try:
        if (r := Fraction(text)) > 0:
            return r
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"expected a positive rational radius, got {text!r}")


def _natural_pairs(text: str) -> list:
    """'a:b,c:d' as [(a, b), (c, d)]; ParseError unless every entry is a
    pair of naturals."""
    pairs = []
    for pair in text.split(","):
        a, _, b = pair.partition(":")
        if not (a.isdecimal() and b.isdecimal()):
            raise ParseError(
                f"expected a pair of naturals a:b, got {pair!r}")
        pairs.append((int(a), int(b)))
    return pairs


def _distance(d) -> str:
    return "INF" if d == metrics.INF else str(d)


def _needed(args, option: str) -> str:
    """The value of ``--option``, which this action needs; ParseError if missing."""
    value = getattr(args, option.replace("-", "_"))
    if value is None:
        raise ParseError(f"{args.command} {args.action} needs --{option}")
    return value


# -- subcommands -------------------------------------------------------------


def _cmd_classify(args) -> int:
    desc = classifier.parse_descriptor(args.descriptor)
    budgets = classifier.Budgets(gamma_max=args.budget or 16)
    label = classifier.classify_group(desc, budgets)
    payload = label.evidence()
    payload["descriptor"] = args.descriptor
    payload["replay_ok"] = classifier.check_evidence(args.descriptor,
                                                     label.evidence())
    _emit(args, payload, [
        f"label: {label.label}",
        f"lambda_case: {label.lambda_case}",
        f"certified: {label.certified}",
        f"basis: {label.basis}",
    ])
    return 0 if label.certified else 2


def _cmd_orbit(args) -> int:
    desc = classifier.parse_descriptor(args.descriptor)
    gamma = perm.parse_points(args.gamma)
    budget = classifier.Budgets(orbit_budget=args.budget or 4096).orbit_budget
    rep = classifier.orbit(desc, gamma, args.alpha, budget)
    payload = rep.to_dict()
    _emit(args, payload, [f"kind: {rep.kind}", f"size: {rep.size}",
                          f"points: {rep.points[:16]}"])
    return 0 if rep.kind != "unknown" else 2


def _cmd_metric(args) -> int:
    d = metrics.parse_metric(args.metric)
    if args.action == "classify":
        radii = ([_radius(r) for r in args.radius.split(",")]
                 if args.radius else metrics.DEFAULT_RADII)
        rep = metrics.classify_metric(d, radii=radii,
                                      centers=args.centers or 512,
                                      ball_cap=args.budget or metrics.BALL_CAP)
        _emit(args, {"metric": d.key, "case": rep.case,
                     "evidence": rep.evidence},
              [f"case: {rep.case}"])
        return 0 if rep.case != "Unknown" else 2
    if args.action == "norm":
        g = perm.parse_perm(_needed(args, "perm"))
        rep = metrics.norm(g, d, window=args.window or 256)
        payload = {"metric": d.key, "lower_bound": _distance(rep.lower_bound),
                   "certificate": rep.certificate,
                   "bound": _distance(rep.bound) if rep.bound is not None else None,
                   "witness_pairs": rep.witness_pairs}
        _emit(args, payload, [f"lower_bound: {payload['lower_bound']}",
                              f"certificate: {rep.certificate}"])
        return 0 if rep.certificate != "unknown" else 2
    if args.action == "flow":
        g = perm.parse_perm(_needed(args, "perm"))
        cuts = range(-(args.window or 4), (args.window or 4) + 1)
        flow = metrics.net_flow(g, cuts)
        payload = {"per_cut": {str(k): v for k, v in flow.per_cut.items()},
                   "common_value": flow.common_value}
        _emit(args, payload, [f"common_value: {flow.common_value}"])
        return 0 if flow.common_value is not None else 2
    if args.action == "refine":
        base = d
        U = [perm.parse_perm(p) for p in (args.u or [])]
        refined = metrics.refine_metric(base, U)
        radius = _radius(args.radius or "8")
        out = []
        for a, b in _natural_pairs(args.pairs or "0:1"):
            res = refined.dist_budgeted(a, b, radius)
            out.append({"a": a, "b": b, "kind": res.kind,
                        "value": str(res.value)})
        _emit(args, {"metric": refined.key, "distances": out},
              [f"{o['a']}..{o['b']}: {o['kind']} {o['value']}" for o in out])
        return 0


def _cmd_local(args) -> int:
    f = perm.parse_perm(args.perm)
    if args.action == "breakpoints":
        bp = localdecomp.breakpoints(f, args.count or 8)
        values = [bp.value(i) for i in range(args.count or 8)]
        _emit(args, {"breakpoints": values}, [f"a: {values}"])
        return 0
    if args.action == "decompose":
        g, h = localdecomp.decompose_local(f, args.count or 8)
        window = args.window or 64
        with perm.metered():
            ok = all(h.forward(g.forward(a)) == f.forward(a)
                     for a in _scanned(h, window))
        payload = {"g": _finite_repr(g, window), "h": _finite_repr(h, window),
                   "product_matches_window": ok, "window": window}
        _emit(args, payload, [f"g: {payload['g']}", f"h: {payload['h']}",
                              f"product ok on window {window}: {ok}"])
        return 0 if ok else 1
    if args.action == "check":
        rep = localdecomp.is_local(f, args.window or 256)
        payload = {"answer": rep.answer, "witnesses": rep.invariant_prefixes[:16],
                   "stuck_at": rep.stuck_at, "basis": rep.basis}
        _emit(args, payload, [f"answer: {rep.answer}", f"basis: {rep.basis}"])
        return 0 if rep.answer == "yes" else 2


def _scanned(p, window: int) -> range:
    """[0, window), cut at p's support bound when p is certified: it fixes the rest."""
    return range(window if p.support_bound is None else min(window, p.support_bound))


def _finite_repr(p, window: int) -> str:
    """Cycle form when the moved points close up inside the window, else the
    raw window mapping."""
    with perm.metered():
        moved = {a: b for a in _scanned(p, window) if (b := p.forward(a)) != a}
    if set(moved.values()) == set(moved):
        return perm.format_perm(perm.FiniteSupportPermutation(moved))
    return "map:" + ",".join(f"{a}>{b}" for a, b in sorted(moved.items()))


def _cmd_witness(args) -> int:
    window = args.window or 100
    if args.action == "p-equiv":
        A = partitions.parse_partition(args.partition or "intervals-growing")
        B = partitions.parse_partition(args.partition_b or args.partition
                                       or "intervals-growing")
        w = witnesses.p_equiv_witness(A, B, args.depth or 4)
        payload = {
            "f": _finite_repr(w.f, window), "g": _finite_repr(w.g, window),
            "b1_blocks": w.b1_blocks, "b2_blocks": w.b2_blocks,
            "packing_f": w.packing_f, "packing_g": w.packing_g,
        }
        _emit(args, payload, [f"f: {payload['f']}", f"g: {payload['g']}"])
        return 0
    if args.action == "q-equiv":
        A = partitions.parse_partition(args.partition or "pairs")
        w = witnesses.q_equiv_witness(A, depth=args.depth or 8)
        payload = {"f": _finite_repr(w.f, window),
                   "g": _finite_repr(w.g, window),
                   "bound": w.bound}
        _emit(args, payload, [f"f: {payload['f']}", f"g: {payload['g']}"])
        return 0
    if args.action == "even-shift":
        A = partitions.parse_partition(_needed(args, "partition"))
        w = witnesses.even_shift_witness(A)
        with perm.metered():
            marked = {i: w.marked(i) for i in range(-(args.depth or 4),
                                                    4 * (args.depth or 4))}
        payload = {"witness": _finite_repr(w, window),
                   "marked": {str(k): v for k, v in sorted(marked.items())}}
        _emit(args, payload, [f"witness: {payload['witness']}"])
        return 0
    if args.action == "commutator":
        if set(args.pattern) - set("01"):
            raise ParseError(
                f"pattern must be a bit string, got {args.pattern!r}")
        bits = [int(b) for b in args.pattern]
        lo = -(len(bits) // 2)
        target = {lo + i: bits[i] for i in range(len(bits))}
        sol = witnesses.commutator_solve(target, anchor=args.anchor or 0)
        realized = {i: witnesses.commutator_action_on_block(sol, i)
                    for i in range(sol.lo, sol.hi + 1)}
        payload = {"f_bits": {str(k): v for k, v in sorted(sol.f_bits.items())},
                   "realized": {str(k): v for k, v in sorted(realized.items())},
                   "matches": realized == target}
        _emit(args, payload, [f"matches: {payload['matches']}"])
        return 0 if payload["matches"] else 1
    if args.action == "three-cycle":
        g = perm.parse_perm(_needed(args, "perm"))
        s = perm.parse_perm(_needed(args, "perm-b"))
        c = witnesses.three_cycle_extract(g, s)
        _emit(args, {"commutator": perm.format_perm(c)},
              [f"commutator: {perm.format_perm(c)}"])
        return 0


def _tree_from_args(args) -> trees.TreeState:
    oracle = classifier.oracle_plugin(args.oracle or "stab-a0")
    mode = args.mode or "binary"
    n_seq = None
    if mode == "unbounded":
        n_seq = [i + 1 for i in range(args.depth or 4)]
    return trees.build_tree(oracle, mode, args.depth or 4, n_sequence=n_seq)


def _cmd_tree(args) -> int:
    if args.action == "build":
        tree = _tree_from_args(args)
        stats = tree.verify_invariants()
        payload = {
            "mode": tree.mode, "depth": tree.depth,
            "alphas": tree.alphas, "betas": tree.betas,
            "nodes": len(tree.nodes),
            "gammas": [sorted(g)[:16] for g in tree.gammas],
            "invariants": stats,
        }
        if len(tree.nodes) <= 64:
            payload["elements"] = {
                str(list(k)): perm.format_perm(tree.perm(k))
                for k in sorted(tree.nodes)}
        _emit(args, payload, [f"depth: {tree.depth}",
                              f"nodes: {len(tree.nodes)}",
                              f"alphas: {tree.alphas}"])
        return 0
    if args.action == "branch":
        tree = _tree_from_args(args)
        choice = args.choice or "0" * tree.depth
        if not choice.isdecimal():
            raise ParseError(f"choice must be a digit string, got {choice!r}")
        choice = [int(c) for c in choice]
        g = trees.branch_limit(tree, choice)
        images = {a: g.forward(a) for a in tree.alphas}
        payload = {"choice": choice,
                   "pivot_images": {str(k): v for k, v in images.items()}}
        _emit(args, payload, [f"pivot images: {images}"])
        return 0
    if args.action in ("s", "verify"):
        bps = perm.parse_points(args.breakpoints or "0,1,3,6")
        etree = trees.build_e_tree(bps, depth=args.depth or 3)
        s = trees.build_s(etree)
        if args.action == "s":
            _emit(args, {"s": perm.format_perm(s),
                         "levels": [len(lv) for lv in etree.levels]},
                  [f"s: {perm.format_perm(s)}"])
            return 0
        pi = dict(_natural_pairs(args.pi)) if args.pi else {}
        rep = trees.verify_conjugation(etree, s, pi, args.window or 8)
        payload = {"ok": rep.ok, "checked": rep.checked, "failure": rep.failure}
        _emit(args, payload, [f"ok: {rep.ok}"])
        return 0 if rep.ok else 1


def _cmd_perm(args) -> int:
    p = perm.parse_perm(args.perm)
    if args.action == "eval":
        if args.point < 0:
            raise ParseError(f"expected a natural number, got {args.point}")
        value = p.forward(args.point)
        _emit(args, {"point": args.point, "image": value},
              [f"{args.point} -> {value}"])
        return 0
    if args.action == "verify":
        rep = perm.verify_window(p, args.window or 256)
        payload = {"ok": rep.ok, "window": rep.window, "failure": rep.failure}
        _emit(args, payload, [f"ok: {rep.ok}"] +
              ([f"failure: {rep.failure}"] if rep.failure else []))
        return 0 if rep.ok else 1


# -- argument plumbing --------------------------------------------------------


def _shared_flags(parser, suppress: bool) -> None:
    # global flags are accepted both before and after the subcommand; the
    # subparser copies suppress their defaults so they never mask a value
    # given up front
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS if suppress else False)
    parser.add_argument("--window", type=int, default=default)
    parser.add_argument("--budget", type=int, default=default)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="symkit", description=__doc__)
    _shared_flags(top, suppress=False)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name):
        p = sub.add_parser(name)
        _shared_flags(p, suppress=True)
        return p

    c = add("classify")
    c.add_argument("descriptor")

    o = add("orbit")
    o.add_argument("descriptor")
    o.add_argument("--gamma", default="")
    o.add_argument("--alpha", type=int, required=True)

    m = add("metric")
    m.add_argument("action", choices=["classify", "refine", "norm", "flow"])
    m.add_argument("metric")
    m.add_argument("--perm")
    m.add_argument("--u", action="append")
    m.add_argument("--pairs")
    m.add_argument("--radius")
    m.add_argument("--centers", type=int)

    l = add("local")
    l.add_argument("action", choices=["decompose", "breakpoints", "check"])
    l.add_argument("--perm", required=True)
    l.add_argument("--count", type=int)

    w = add("witness")
    w.add_argument("action", choices=["p-equiv", "q-equiv", "even-shift",
                                      "commutator", "three-cycle"])
    w.add_argument("--partition")
    w.add_argument("--partition-b")
    w.add_argument("--depth", type=int)
    w.add_argument("--pattern", default="0")
    w.add_argument("--anchor", type=int)
    w.add_argument("--perm")
    w.add_argument("--perm-b")

    t = add("tree")
    t.add_argument("action", choices=["build", "branch", "s", "verify"])
    t.add_argument("--mode", choices=["inf", "unbounded", "binary"])
    t.add_argument("--depth", type=int)
    t.add_argument("--oracle")
    t.add_argument("--choice")
    t.add_argument("--breakpoints")
    t.add_argument("--pi")

    p = add("perm")
    p.add_argument("action", choices=["eval", "verify"])
    p.add_argument("--perm", required=True)
    p.add_argument("--point", type=int, default=0)

    return top


SIZE_CEILINGS = {"count": 65536}  # the size options with a ceiling here
_DISPATCH = {
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
    "metric": _cmd_metric,
    "local": _cmd_local,
    "witness": _cmd_witness,
    "tree": _cmd_tree,
    "perm": _cmd_perm,
}


def cli_main(argv=None) -> int:
    """Run one command with the cyclic collector paused: what a command builds
    (its parser, a tree) lives until it returns, so a collection meanwhile
    would only move it to the oldest generation, whose collections scan the
    whole heap of the process.  The next collection frees what it left."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _command(argv)
    finally:
        if enabled:
            gc.enable()


def _command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        for name in ("window", "depth", "count", "centers", "budget"):
            value = getattr(args, name, None)  # None: the command's default
            if value is not None and value < 1:
                raise ParseError(f"--{name} must be at least 1, got {value}")
            if value is not None and value > (most := SIZE_CEILINGS.get(name, value)):
                raise ParseError(f"--{name} must be at most {most}, got {value}")
        return _DISPATCH[args.command](args)
    except SymkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
