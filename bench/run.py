"""symkit benchmark: three closed-loop query workloads.

    python3 bench/run.py --workload lazy-eval --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process runs one workload from one thread: it sends the next query only
after the previous answer, checks every answer against an independent
reference, and stops after ``--seconds`` of wall time.  With ``--trace 0`` it
reports the end-to-end metrics, timed at a nominal machine speed, with
``--trace 1`` the per-layer metrics of a traced replay (see README.md).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full record,
with run metadata and, when traced, every span, goes to bench/out/.
"""
import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("lazy-eval", "metric-search", "classify-replay")
# never used while developing a change; kept back to confirm a claimed gain
HELD_OUT_SEED = 7919
# set-up draws the inputs of this many cycles before the first query is sent
SETUP_CYCLES = 8
# setup_s is the median over this many fresh processes
SETUP_SAMPLES = 7
# query times are reported at the machine speed where reference.speed_kernel
# takes this long, and the kernel runs again once this much time has passed since
# its last run (see README.md, "Machine speed")
NOMINAL_KERNEL_S = 0.010
KERNEL_EVERY_S = 0.1
# set-up times are reported at the machine speed where a bare interpreter
# takes this long to start and print a line
NOMINAL_START_S = 0.050
BARE_START = ["-c", "print('ready', flush=True)"]
LAYERS = ("perm", "partitions", "metrics", "localdecomp", "witnesses", "trees",
          "classifier", "cli")
END_TO_END = {"setup_s": "s", "queries_per_s": "1/s", "query_ms_p50": "ms",
              "query_ms_tail": "ms", "peak_rss_mb": "MB"}
BALL_KEYS = ("standard-omega", "standard-z", "sqrt", "ultra-base2", "cayley-z2",
             "cayley-f2", "discrete", "partition")
CLASSIFY_KINDS = ("gens", "full", "trivial", "stab", "fix", "fn")


def per_layer_names():
    """Every per-layer metric, in report order."""
    names = [f"perm.forward.{form}.ns" for form in ("finite", "rule", "word", "limit")]
    names += ["perm.window_check.busy_s", "perm.budget_exhausted",
              "localdecomp.decompose_local.calls", "localdecomp.decompose_local.busy_s",
              "localdecomp.forward.busy_s",
              "trees.build_tree.busy_s", "trees.branch_limit.calls",
              "trees.branch_limit.busy_s",
              "witnesses.factor_through.calls", "witnesses.factor_through.busy_s",
              "witnesses.forward.busy_s",
              "witnesses.sfinite_class.calls", "witnesses.sfinite_class.busy_s",
              "partitions.stabilizer_membership.busy_s", "partitions.block_of.ns"]
    for key in BALL_KEYS:
        names += [f"metrics.ball.{key}.busy_s", f"metrics.ball.{key}.points"]
    names += ["metrics.refine.hot.busy_s", "metrics.refine.exact_frac",
              "metrics.refine.cold.busy_s", "metrics.norm.busy_s",
              "metrics.factor_fn_omega.busy_s", "metrics.forward.busy_s",
              "metrics.net_flow.busy_s"]
    names += [f"classifier.classify_group.{kind}.busy_s" for kind in CLASSIFY_KINDS]
    names += ["classifier.check_evidence.busy_s", "classifier.orbit.busy_s",
              "classifier.parse_descriptor.busy_s", "classifier.unknown_frac",
              "cli.cli_main.calls", "cli.cli_main.busy_s"]
    names += [f"{layer}.share" for layer in LAYERS]
    return names + ["trace_overhead_frac"]


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"ns": "ns", "busy_s": "s", "calls": "count", "points": "count",
            "budget_exhausted": "count"}.get(suffix, "ratio")


def load_symkit():
    """Import the workloads against the symkit in this checkout's src/."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import symkit
        import workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import symkit from {SRC}: {exc}")
    if not Path(symkit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: symkit was imported from {symkit.__file__}, not {SRC}")
    return workloads


def setup(workloads, name, seed):
    """Everything before the first query: the seeded inputs of the first
    cycles and the objects that live across queries."""
    queries = workloads.queries(name, seed)
    pool = list(itertools.islice(queries, SETUP_CYCLES * workloads.cycle_length(name)))
    return itertools.chain(pool, queries), workloads.WORKLOADS[name].context()


def kernel_seconds():
    import reference

    start = time.perf_counter()
    reference.speed_kernel()
    return time.perf_counter() - start


def until_ready(args):
    """Seconds from starting ``python <args>`` until it prints 'ready'; the
    process is then left to finish and must exit with status 0."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=170) != 0 or first.strip() != "ready":
            sys.exit(f"error: python {' '.join(args)} did not get ready")
    return seconds


def setup_sample(name, seed):
    """One set-up, timed from starting a fresh process until it is ready to
    send its first query, raw and at nominal machine speed: scaled by the
    mean start time of a bare interpreter just before and just after it."""
    before = until_ready(BARE_START)
    raw = until_ready([str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--setup-only"])
    start_s = (before + until_ready(BARE_START)) / 2
    return {"raw_s": raw, "start_s": start_s, "setup_s": raw * NOMINAL_START_S / start_s}


def setup_seconds(name, seed):
    """Median set-up time over SETUP_SAMPLES fresh processes."""
    runs = [setup_sample(name, seed) for _ in range(SETUP_SAMPLES)]
    return statistics.median(r["setup_s"] for r in runs), runs


class Run:
    """What one closed loop did: latencies, failures and the queries sent."""

    def __init__(self):
        self.latencies = []   # seconds, in the order sent
        self.kernels = []     # (queries sent before it, speed_kernel seconds)
        self.failed = 0
        self.budget_exhausted = 0
        self.classes = Counter()
        self.sent = []
        self.errors = []

    def scaled(self):
        """Latencies at nominal machine speed: each is scaled by the mean of
        the speed-kernel runs just before and just after it."""
        positions = [pos for pos, _ in self.kernels]
        out = []
        for qid, t in enumerate(self.latencies):
            after = bisect.bisect_right(positions, qid)
            speed = (self.kernels[after - 1][1] + self.kernels[after][1]) / 2
            out.append(t * NOMINAL_KERNEL_S / speed)
        return out


def closed_loop(workloads, queries, ctx, tr, seconds=None):
    from symkit.errors import EvaluationBudgetError

    run = Run()
    start = last_kernel = time.perf_counter()
    run.kernels.append((0, kernel_seconds()))
    for qid, query in enumerate(queries):
        now = time.perf_counter()
        if seconds is not None and qid and now - start >= seconds:
            break
        if now - last_kernel >= KERNEL_EVERY_S:
            run.kernels.append((qid, kernel_seconds()))
            last_kernel = time.perf_counter()
        cls, inputs = query
        _, answer_of, check = workloads.QUERIES[cls]
        error = None
        tr.begin(qid, cls)
        t0 = time.perf_counter()
        try:
            answer = answer_of(inputs, ctx, tr)
        except EvaluationBudgetError as exc:
            run.budget_exhausted += 1
            error = exc
        except Exception as exc:  # a failed query is counted, never fatal
            error = exc
        run.latencies.append(time.perf_counter() - t0)
        tr.end()
        if error is None:
            try:
                ok = check(inputs, answer) is True
            except Exception as exc:  # a malformed answer fails its check
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            run.failed += 1
            if len(run.errors) < 5:
                run.errors.append(f"query {qid} ({cls}): "
                                  f"{'wrong answer' if error is None else repr(error)}")
        run.classes[cls] += 1
        run.sent.append(query)
    run.kernels.append((len(run.latencies), kernel_seconds()))
    return run


def tail(latencies_ms):
    """(value, percentile, beyond): the highest nearest-rank percentile with
    at least ten samples above it, or the maximum when there are too few."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(latencies, failed, setup_s):
    ms = [t * 1000.0 for t in latencies]
    busy = sum(latencies)
    tail_ms, pct, beyond = tail(ms)
    values = {
        "setup_s": setup_s,
        "queries_per_s": (len(ms) - failed) / busy,
        "query_ms_p50": statistics.median(ms),
        "query_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"percentile": pct, "samples": len(ms), "beyond": beyond}


def per_layer(tr, run, untraced):
    totals = tr.totals()

    def busy(name):
        return totals.get(name, (0.0, 0, 0))[0]

    def calls(name):
        return totals.get(name, (0.0, 0, 0))[2]

    def ns(name):
        return busy(name) / calls(name) * 1e9 if calls(name) else 0.0

    def ratio(part, whole):
        return tr.counts[part] / tr.counts[whole] if tr.counts[whole] else 0.0

    traced_s = tr.query_seconds()
    v = {f"perm.forward.{form}.ns": ns(f"perm.forward.{form}")
         for form in ("finite", "rule", "word", "limit")}
    v["perm.window_check.busy_s"] = sum((t[0] for name, t in totals.items()
                                         if name.startswith("perm.forward.")), 0.0)
    v["perm.budget_exhausted"] = run.budget_exhausted
    for name in ("localdecomp.decompose_local", "trees.branch_limit",
                 "witnesses.factor_through", "witnesses.sfinite_class",
                 "cli.cli_main"):
        v[f"{name}.calls"] = calls(name)
    for key in BALL_KEYS:
        v[f"metrics.ball.{key}.points"] = tr.counts[f"metrics.ball.{key}.points"]
    v["partitions.block_of.ns"] = ns("partitions.block_of")
    v["metrics.refine.exact_frac"] = ratio("metrics.refine.exact", "metrics.refine.attempts")
    v["classifier.unknown_frac"] = ratio("classifier.unknown", "classifier.classified")
    for layer in LAYERS:
        v[f"{layer}.share"] = sum(t[0] for name, t in totals.items()
                                  if name.startswith(layer + ".")) / traced_s
    # both passes at nominal machine speed, so a change of speed between them
    # does not read as tracing cost
    v["trace_overhead_frac"] = sum(run.scaled()) / sum(untraced.scaled()) - 1.0
    for name in per_layer_names():
        if name.endswith(".busy_s") and name not in v:
            v[name] = busy(name[:-len(".busy_s")])
    return v


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "symkit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": _commit(),
            "source_sha256": digest.hexdigest(), "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def report(args, record):
    """Print the record for people, then the one-line result."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"run {args.seconds:g} s  (held-out seed {HELD_OUT_SEED})")
    metrics = record["metrics"]
    notes = {}
    if not args.trace:
        t = record["tail"]
        notes = {"setup_s": f"median of {len(record['setup_samples'])} set-ups",
                 "query_ms_tail": f"p{t['percentile']:.2f} of {t['samples']} "
                                  f"queries, {t['beyond']} beyond"}
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':42s} {record['failed_frac']:14.6g} ratio  "
          f"{record['failed']} of {record['attempted']}")
    if not args.trace:
        start_ms = statistics.median(r["start_s"] for r in record["setup_samples"]) * 1000
        print(f"  raw (speed kernel {record['kernel_s'] * 1000:.2f} ms, bare start "
              f"{start_ms:.1f} ms): " + "  ".join(
            f"{k} {v:.6g}" for k, v in record["raw_metrics"].items()))
    meta = record["meta"]
    print(f"  nproc {meta['nproc']}  python {meta['python']}  {meta['platform']}  "
          f"commit {meta['commit'][:12]}")
    print("  queries " + " ".join(f"{k}={v}" for k, v in sorted(record["classes"].items())))
    for line in record["errors"]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))


def run_workload(args):
    workloads = load_symkit()
    queries, ctx = setup(workloads, args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    from spans import NullTracer, Tracer

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "meta": metadata(args.seed)}
    if args.trace:
        # untraced for half the time, then the same queries traced, on fresh
        # long-lived objects so that caches start as cold as the first time
        first = closed_loop(workloads, queries, ctx, NullTracer(), args.seconds / 2)
        ctx = None
        tr = Tracer()
        second = closed_loop(workloads, iter(first.sent),
                             workloads.WORKLOADS[args.workload].context(), tr)
        values = per_layer(tr, second, first)
        runs = [first, second]
        record["spans"] = tr.spans
        record["counts"] = dict(tr.counts)
    else:
        setup_s, record["setup_samples"] = setup_seconds(args.workload, args.seed)
        run = closed_loop(workloads, queries, ctx, NullTracer(), args.seconds)
        values, record["tail"] = end_to_end(run.scaled(), run.failed, setup_s)
        raw, _ = end_to_end(run.latencies, run.failed,
                            statistics.median(r["raw_s"] for r in record["setup_samples"]))
        record["raw_metrics"] = raw
        record["kernel_s"] = statistics.median(k for _, k in run.kernels)
        runs = [run]
    record["attempted"] = sum(len(r.latencies) for r in runs)
    record["failed"] = sum(r.failed for r in runs)
    record["failed_frac"] = record["failed"] / record["attempted"]
    record["errors"] = [e for r in runs for e in r.errors]
    record["classes"] = dict(runs[-1].classes)
    record["metrics"] = {name: {"value": values[name], "unit": unit_of(name)}
                         for name in (per_layer_names() if args.trace else END_TO_END)}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record))
    report(args, record)
    return 0


def run_all(args):
    """Each workload in its own process, so that peak memory does not mix."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if proc.returncode == 0:
            results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
