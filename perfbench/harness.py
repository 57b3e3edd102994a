"""Set-up timing, the item loop, output checks, metrics and the run record."""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import entcost
import entcost.cli
import entcost.eof
import entcost.formation
import entcost.metrics
import entcost.qcore
import entcost.regcost
import entcost.serialize
import entcost.verify

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"     # generated inputs, reports and spans
SETUP_REPEATS = 5     # setup_s is the median of this many fresh set-ups
READY = "perfbench-ready"
TAIL_BEYOND = 10      # item_tail_s: highest percentile with this many items beyond

# Machine-speed calibration.  On a shared VM the same work can take 1.8x
# longer from one minute to the next (measured on the 2-core Xeon this
# benchmark was written on, with no CPU steal reported), so end-to-end times
# are scaled by a fixed kernel that never touches entcost: an item's time is
# multiplied by (CAL_REF_S / kernel time around it) ** Item.speed_exponent.
# The kernel is interpreter-bound and interpreter-bound items follow it fully
# (exponent 1: per-second CV of eof work fell from 0.18 to 0.07); dense-matrix
# items feel only part of its slowdown (see workloads.DENSE_SPEED_EXPONENT).
# Set-up is import-bound and feels little of it: over 24 fresh set-ups the
# CV of their times was 0.10 unscaled, 0.10 at exponent 0.3 and 0.15 at 1.
SETUP_SPEED_EXPONENT = 0.3
CAL_REPS = 1000
CAL_REF_S = 0.008
_CAL_MATRIX = np.array([[2.0, 1j, 0.0, 0.5], [-1j, 1.0, 0.2, 0.0],
                        [0.0, 0.2, 3.0, 1.0], [0.5, 0.0, 1.0, 1.0]])


@dataclass
class ItemRecord:
    wall: float           # measured wall time of the CLI call
    kernel: float         # calibration kernel time around the call
    speed_exponent: float
    ok: bool
    excess: float | None

    @property
    def seconds(self):
        """Wall time scaled to the reference machine speed."""
        return self.wall * (CAL_REF_S / self.kernel) ** self.speed_exponent


def calibration_kernel():
    """Seconds for a fixed mix of interpreter work and small eigvalsh calls."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(CAL_REPS):
        acc += float(np.linalg.eigvalsh(_CAL_MATRIX)[0]) * 1e-3 + k * 0.5
    return time.perf_counter() - t0


def run(args, *, cores, threads):
    if Path(entcost.__file__).resolve().parent != (SRC / "entcost").resolve():
        print(f"error: entcost imported from {entcost.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"{workload.name}-{args.seed}"
    if args.setup_only:
        build_inputs(workload, args.seed, args.seconds, workdir)
        print(READY, flush=True)
        return 0

    setups = []
    if args.trace:
        build_inputs(workload, args.seed, args.seconds, workdir)
    else:
        for _ in range(SETUP_REPEATS):
            setups.append(timed_setup(args))
    items = workload.build(args.seed, args.seconds, workdir, False)
    out_path = workdir / "report.json"

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  why: {workload.why}")
    if workload.held_out:
        print(f"  held out of BENCHMARK.json: {workload.held_out}")
    print("record " + json.dumps(run_record(args, cores, threads), sort_keys=True))
    if args.trace:
        metrics, records = traced_run(items, out_path, workdir)
    else:
        records = []
        passes = timed_loop(items, out_path, args.seconds, records)
        metrics = end_to_end(records, passes, setups)
    failed = sum(not r.ok for r in records)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {_fmt(value)} {unit}")
    reported = _reported(args.trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in reported},
    }))
    return 0


def _reported(trace):
    """Names of the metrics BENCHMARK.json asks for in this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def build_inputs(workload, seed, seconds, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workload.build(seed, seconds, workdir, True)


def timed_setup(args):
    """(wall, kernel): seconds from spawning a fresh interpreter to the point
    where it could start its first item (imports, input generation and file
    writes), and the calibration kernel time around it."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    before = calibration_kernel()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != READY:
        raise RuntimeError(f"set-up process failed with exit code {code}")
    return elapsed, (before + calibration_kernel()) / 2.0


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------

def run_item(index, item, out_path, call):
    """One CLI call and its output check.  A nonzero exit code, an exception
    or a failed check marks the item failed; none of them stops the run."""
    out_path.unlink(missing_ok=True)
    argv = list(item.argv) + ["--output", str(out_path)]
    before = calibration_kernel()
    t0 = time.perf_counter()
    try:
        code = call(index, argv)
    except SystemExit as exc:           # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:            # a crash is a failed item
        print(f"item {item.name} raised {exc!r}", file=sys.stderr)
        code = None
    elapsed = time.perf_counter() - t0
    kernel = (before + calibration_kernel()) / 2.0
    try:
        report = json.loads(out_path.read_text(encoding="utf-8")) if code == 0 else None
        ok, excess = item.check(code, report)
    except Exception as exc:            # a malformed report fails its item
        print(f"item {item.name}: check raised {exc!r}", file=sys.stderr)
        ok, excess = False, None
    if not ok:
        print(f"item {item.name} failed (exit code {code})", file=sys.stderr)
    return ItemRecord(elapsed, kernel, item.speed_exponent, bool(ok), excess)


def _untraced(index, argv):
    return entcost.cli.main(argv)


def one_pass(items, out_path, call=_untraced):
    return [run_item(i, item, out_path, call) for i, item in enumerate(items)]


def timed_loop(items, out_path, seconds, records):
    """Cycle through the corpus until `seconds` have passed and at least one
    pass is complete.  Every item goes to `records`; returns the records of
    each complete pass, so that run_s always covers the whole corpus."""
    passes = []
    t0 = time.perf_counter()
    while True:
        done = []
        for i, item in enumerate(items):
            if passes and time.perf_counter() - t0 >= seconds:
                break
            done.append(run_item(i, item, out_path, _untraced))
        records.extend(done)
        if len(done) == len(items):
            passes.append(done)
        if time.perf_counter() - t0 >= seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(times):
    """(seconds, percentile, items beyond) at the highest percentile that
    still has TAIL_BEYOND items beyond it; the maximum when there are fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    j = n - TAIL_BEYOND - 1
    return ordered[j], 100.0 * (j + 1) / n, TAIL_BEYOND


def end_to_end(records, passes, setups):
    """End-to-end metrics.  Times are at reference machine speed, with the
    measured wall times printed beside them as *_wall_s."""
    times = [r.seconds for r in records]
    walls = [r.wall for r in records]
    run_s = statistics.median(sum(r.seconds for r in done) for done in passes)
    tail_s, tail_pct, beyond = tail(times)
    excess = [r.excess for r in records if r.excess is not None]
    m = {
        "setup_s": (statistics.median(w * (CAL_REF_S / k) ** SETUP_SPEED_EXPONENT
                                      for w, k in setups), "s"),
        "setup_wall_s": (statistics.median(w for w, _ in setups), "s"),
        "run_s": (run_s, "s"),
        "run_wall_s": (statistics.median(sum(r.wall for r in done) for done in passes), "s"),
        "items_per_s": (len(passes[0]) / run_s, "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_p50_wall_s": (statistics.median(walls), "s"),
        "item_tail_s": (tail_s, "s"),
        "item_tail_pct": (tail_pct, "%"),
        "item_tail_beyond": (beyond, "count"),
        "items": (len(records), "count"),
        "passes": (len(passes), "count"),
        "calibration_kernel_s": (statistics.median(r.kernel for r in records), "s"),
        "failed_frac": (sum(not r.ok for r in records) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if excess:
        m["excess_ebits"] = (float(np.mean(excess)), "ebit")
    return m


def traced_pass(items, out_path):
    """One pass over the corpus with every wrapper installed."""
    tracer = tracing.Tracer()
    tracer.install(_modules())
    try:
        records = one_pass(items, out_path, lambda i, argv: tracer.call_item(
            i, entcost.cli.main, argv))
    finally:
        tracer.uninstall()
    return records, tracer


def traced_run(items, out_path, workdir):
    """One untraced pass, then the same corpus traced."""
    records = one_pass(items, out_path)
    untraced_s = sum(r.seconds for r in records)
    traced, tracer = traced_pass(items, out_path)
    records.extend(traced)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (sum(r.seconds for r in traced) - untraced_s, "s")
    tracer.write(workdir / "spans.npz")
    return metrics, records


def _modules():
    mods = {m.__name__: m for m in (
        entcost.cli, entcost.eof, entcost.formation, entcost.metrics,
        entcost.qcore, entcost.regcost, entcost.serialize, entcost.verify)}
    mods["numpy.linalg"] = np.linalg
    return mods


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def run_record(args, cores, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": cores,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest():
    """Identifies the program when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "entcost").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
