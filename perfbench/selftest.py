"""Harness self-test at tiny sizes: about half a minute on two cores.

    python3 perfbench/selftest.py

For every workload it builds the small corpus, runs each item untraced and
traced, and requires every output check to pass.  It also requires each
check to reject a corrupted report, the traced run to produce every
per-layer metric named in BENCHMARK.json, and two traced passes to give
identical deterministic counts.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run

DETERMINISTIC = (
    "eof.optimize_calls", "eof.starts", "eof.unconverged",
    "eof.restart_win_ratio", "eof.random_starts_compared",
    "eof.linesearch_calls", "regcost.warm_start_best_ratio",
    "regcost.warm_start_calls", "formation.typical_sequences",
    "metrics.fidelity_calls", "qcore.repair_psd_calls",
    "serialize.report_bytes", "linalg.eigh_calls", "linalg.eigvalsh_calls",
    "linalg.svd_calls", "linalg.flops_computed", "trace.spans",
)

# per-layer metrics only the held-out verify-fuzz workload moves, so
# BENCHMARK.json does not list them; every traced run still prints them
VERIFY_ONLY = {"verify.monotonicity_s", "verify.continuity_s",
               "verify.metric_chain_s", "verify.multiplicativity_s",
               "eof.closed_form_s", "eof.locc_s"}

SEED = 7


def _corrupt(workload, report):
    """A report each workload's check must reject."""
    bad = copy.deepcopy(report)
    res = bad["result"]
    if workload == "eof-qubit":
        res["value"] += 0.01
    elif workload == "regularize-n2":
        res["trace"]["entries"][1]["rate"] = res["trace"]["entries"][0]["rate"] + 1e-6
    elif workload == "formation-exact":
        res["exact_bures"] = res["bures_bound"] + 1e-9
    else:
        res["multiplicativity"]["violations"] = 1
    return bad


def expect(cond, message):
    if not cond:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def traced_metrics(harness, tracing, items, out_path):
    records, tracer = harness.traced_pass(items, out_path)
    return records, tracing.layer_metrics(tracer)


def main():
    if run.prepare() is None:
        return 2
    import harness
    import tracing
    from workloads import WORKLOADS

    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    per_layer |= VERIFY_ONLY
    expect({w.name: w.why for w in WORKLOADS.values() if not w.held_out}
           == {w["name"]: w["why"] for w in spec["workloads"]},
           "BENCHMARK.json lists exactly the harness workloads not held out, "
           "with their reasons")

    harness.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
        for name, workload in WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            items = workload.build(SEED, 1.0, workdir, True, small=True)
            out_path = workdir / "report.json"
            records = harness.one_pass(items, out_path)
            expect(all(r.ok for r in records),
                   f"{name}: {len(records)} small items pass their checks")

            report = json.loads(out_path.read_text(encoding="utf-8"))
            ok, _ = items[-1].check(0, _corrupt(name, report))
            expect(not ok, f"{name}: the check rejects a corrupted report")
            ok, _ = items[-1].check(1, report)
            expect(not ok, f"{name}: the check rejects a nonzero exit code")

            first, metrics = traced_metrics(harness, tracing, items, out_path)
            second, again = traced_metrics(harness, tracing, items, out_path)
            expect(all(r.ok for r in first + second),
                   f"{name}: traced items pass their checks")
            expect(per_layer <= set(metrics),
                   f"{name}: traced run produces every per-layer metric")
            expect(all(metrics[k] == again[k] for k in DETERMINISTIC),
                   f"{name}: deterministic counts repeat between traced passes")
            expect(metrics["cli.self_s"][0] > 0 and metrics["trace.spans"][0] > len(items),
                   f"{name}: item spans and their children are recorded")

    expect(harness.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10),
           "item_tail_s leaves ten items beyond the reported percentile")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
