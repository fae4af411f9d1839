"""Benchmark of the twocolor-hhg pipelines, end to end and per layer.

    python3 perfbench/run.py --workload {spectrum,scan} --seed N \
        --seconds S --trace {0,1}

Run from a checkout holding ``src/twocolor_hhg``.  One process, one caller,
sequential operations (a closed loop), BLAS/OpenMP threads pinned to 1.
With ``--trace 0`` the workload's passes are repeated for at least
``--seconds`` seconds and the end-to-end metrics are reported; with
``--trace 1`` the first input configuration's pass is run untraced, twice
traced and untraced again, and the per-layer metrics of the first traced
pass are reported.  Every operation's output is checked; the last stdout
line is the JSON result.  Metric names and units come from BENCHMARK.json;
perfbench/README.md describes them.
"""

import os

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)   # before numpy is imported anywhere

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from twocolor_hhg import cli; "
              "cli.resolve_config(cli.build_parser().parse_args(sys.argv[2:]))")


def import_library():
    """Import the package from this checkout's source tree, nowhere else."""
    if not (SRC / "twocolor_hhg" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'twocolor_hhg'} not found; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    mods = {n: importlib.import_module(f"twocolor_hhg.{n}")
            for n in ("cli", "field", "oracle")}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "twocolor_hhg":
        sys.exit(f"perfbench: imported {mods['cli'].__file__}, not this checkout")
    return SimpleNamespace(**mods)


def measure_setup(argv):
    """Process start to library imported and config resolved, in fresh
    interpreters; the median of several."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), samples


def environment(seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            sha = res.stdout.strip() or None
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "thread_env": THREAD_ENV, "seed": seed}


class Runner:
    """Times operations, applies their checks and compares repeated ones."""

    def __init__(self):
        self.records = []
        self.digests = {}

    def run(self, op, n_pass, tracer=None):
        """Run, time and check one operation; return its wall time."""
        t0 = None
        try:
            if op.prepare is not None:
                op.prepare()
            t0 = time.perf_counter()
            result, error = op.run(), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0 if t0 is not None else 0.0
        outcome = None
        if error is None:
            try:
                outcome = op.check(result)
            except Exception:   # unreadable or malformed output
                error = traceback.format_exc(limit=3)
        problems = outcome.problems if outcome else [f"{op.key}: {error}"]
        if outcome and outcome.digest is not None:
            first = self.digests.setdefault(op.key, outcome.digest)
            if first != outcome.digest:
                problems.append(f"{op.key}: output differs from its first run")
        if tracer is not None and outcome:
            tracer.counts["cli.bytes_written"] += outcome.bytes_written
        self.records.append(SimpleNamespace(
            kind=op.kind, key=op.key, n_pass=n_pass, seconds=dt,
            problems=problems, orders=op.orders, cells=op.cells,
            grid_points=op.grid_points,
            quality=outcome.quality if outcome else {}))
        return dt

    def run_pass(self, workload, n_pass, configs=None, tracer=None):
        return sum(self.run(op, n_pass, tracer)
                   for op in workload.ops(n_pass, configs))

    def quality(self):
        """Per-config values of the reported (ungated) accuracy metrics,
        averaged over the configs of the run; 0 where not computed."""
        per = {}
        for r in self.records:
            for name, v in r.quality.items():
                per.setdefault(name, {})[r.key.rpartition(" ")[2]] = v
        names = ("oracle_log_pearson", "oracle_log10_offset",
                 "oracle_halving_drift", "fit_tau_error")
        return {n: statistics.fmean(per[n].values()) if n in per else 0.0
                for n in names}


def timing_metrics(records, pass_ops, latency_kinds):
    """Latency percentiles over the workload's main commands, and
    throughputs over a typical pass: the operations of one pass, each timed
    at the run's median for its kind.  One command slowed by the host then
    moves the throughputs no more than it moves a median, and where the run
    stopped within a pass does not move them at all."""
    times = sorted(r.seconds for r in records if r.kind in latency_kinds)
    n = len(times)
    median_rank = -(-n // 2)     # nearest-rank median: a real sample
    # the highest percentile with TAIL_BEYOND samples beyond it; a run of
    # fewer than 4 * TAIL_BEYOND commands keeps a quarter of them beyond
    # it, so the tail never rests on the two or three slowest samples alone
    tail_rank = max(n - min(TAIL_BEYOND, n // 4), median_rank)
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    kind_median = {k: statistics.median(t) for k, t in by_kind.items()}
    typical_pass = sum(kind_median[op.kind] for op in pass_ops)
    return {
        "p50": times[median_rank - 1],
        "tail": times[tail_rank - 1],
        "tail_percentile": 100.0 * tail_rank / n,
        "n": n,
        "busy": sum(r.seconds for r in records),
        "typical_pass_s": typical_pass,
        "kind_median_s": kind_median,
        "orders_per_s": sum(op.orders for op in pass_ops) / typical_pass,
        "cells_per_s": sum(op.cells for op in pass_ops) / typical_pass,
        "grid_points_per_s": sum(op.grid_points for op in pass_ops) / typical_pass,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = import_library()
    import tracer as tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]

    work = STATE / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, work, lib)
        setup_s, setup_samples = measure_setup(workload.setup_argv)
        runner = Runner()
        report = {"workload": args.workload, "env": environment(args.seed),
                  "latency_kinds": workload.LATENCY_KINDS,
                  "configs": workload.configs, "setup_samples_s": setup_samples}
        if args.trace:
            metrics, extra = traced_run(runner, workload, tracing,
                                        [m["name"] for m in declared])
            report.update(extra)
        else:
            timed_run(runner, workload, args.seconds)
        records = runner.records
        timing = timing_metrics(records, workload.ops(0),
                                workload.LATENCY_KINDS)
        failed = sum(1 for r in records if r.problems)
        quality = runner.quality()
        quality["failed_fraction"] = failed / len(records)
        if args.trace:
            metrics.update(quality)
        else:
            metrics = {
                "setup_s": setup_s,
                "orders_per_s": timing["orders_per_s"],
                "cells_per_s": timing["cells_per_s"],
                "result_s.p50": timing["p50"],
                "result_s.tail": timing["tail"],
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"metrics not computed: {missing}")
        report.update(timing=timing, quality=quality, metrics=metrics,
                      problems=[p for r in records for p in r.problems],
                      operations=[(r.key, r.n_pass, r.seconds) for r in records])
        print_summary(args, report, failed, len(records))
        STATE.mkdir(exist_ok=True)
        (STATE / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(report, indent=1, default=str) + "\n")
        correct = failed == 0 and report.get("self_test", {}).get("ok", True)
        print(json.dumps({"correct": correct, "attempted": len(records),
                          "failed": failed,
                          "metrics": {m["name"]: {"value": metrics[m["name"]],
                                                  "unit": m["unit"]}
                                      for m in declared}}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def timed_run(runner, workload, seconds):
    """Repeat passes for ``seconds``, stopping between two operations, and
    not before the second pass has begun, so the determinism check always
    runs."""
    t_start = time.perf_counter()
    n_pass = 0
    while True:
        for op in workload.ops(n_pass):
            runner.run(op, n_pass)
            if n_pass >= 1 and time.perf_counter() - t_start >= seconds:
                return
        n_pass += 1


def traced_run(runner, workload, tracing, names):
    """Four passes over the first config: untraced, traced, traced, untraced.

    The per-layer metrics are those of the first traced pass; the exact
    counts of the two traced passes must agree.  The overhead compares the
    mean traced and untraced pass, which balances warm-up drift."""
    tr = tracing.Tracer()
    first_config = [0]
    untraced = [runner.run_pass(workload, 0, first_config)]
    tr.install()
    try:
        traced = [runner.run_pass(workload, 1, first_config, tracer=tr)]
        first = tr.layer_metrics(names)
        tree = tr.call_tree()
        tr.reset()
        traced.append(runner.run_pass(workload, 2, first_config, tracer=tr))
        second = tr.layer_metrics(names)
    finally:
        tr.uninstall()
    untraced.append(runner.run_pass(workload, 3, first_config))
    untraced_s, traced_s = statistics.fmean(untraced), statistics.fmean(traced)
    mismatched = {n: (first[n], second[n]) for n in tracing.EXACT_COUNTS
                  if first[n] != second[n]}
    metrics = dict(first)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    extra = {"self_test": {"ok": not mismatched, "mismatched": mismatched,
                           "exact_counts": {n: first[n] for n in tracing.EXACT_COUNTS}},
             "untraced_s": untraced_s, "traced_s": traced_s, "call_tree": tree}
    return metrics, extra


def print_summary(args, report, failed, attempted):
    timing, quality = report["timing"], report["quality"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(report["env"]))
    print("configs " + json.dumps(report["configs"]))
    print(f"operations {attempted} attempted, {failed} failed "
          f"(failed_fraction {quality['failed_fraction']:.4f}); "
          f"p50 {timing['p50']:.4f} s, p{timing['tail_percentile']:.1f} "
          f"{timing['tail']:.4f} s over {timing['n']} "
          f"{'/'.join(report['latency_kinds'])} operations")
    print(f"throughput orders_per_s {timing['orders_per_s']:.4f}, cells_per_s "
          f"{timing['cells_per_s']:.4f}, grid_points_per_s "
          f"{timing['grid_points_per_s']:.1f} over a typical pass of "
          f"{timing['typical_pass_s']:.2f} s ({timing['busy']:.2f} s busy in all); "
          "median s by kind "
          + json.dumps({k: round(v, 4) for k, v in timing["kind_median_s"].items()}))
    print("reported, not gated: " + ", ".join(
        f"{n} {v:.6g}" for n, v in quality.items()))
    if "self_test" in report:
        st = report["self_test"]
        print(f"tracing overhead {report['traced_s'] - report['untraced_s']:.3f} s "
              f"({report['traced_s']:.3f} traced vs {report['untraced_s']:.3f} s "
              f"untraced); exact-count self-test "
              f"{'passed' if st['ok'] else 'FAILED ' + json.dumps(st['mismatched'])}")
    for p in report["problems"][:20]:
        print("problem: " + p.replace("\n", " | "))


if __name__ == "__main__":
    sys.exit(main())
