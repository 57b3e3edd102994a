"""Span recorder for the traced benchmark run.

The traced run wraps public entry points of `entcost` (and numpy's
eigensolvers) in the modules whose code calls them, because each caller
looks its callee up as a module global at call time.  The program itself is
never edited: the wrappers exist only in the traced process and are removed
when the traced pass ends.

A span is (name, size, start, end, parent span, item id).  Spans are kept in
compact arrays in memory and written to one `.npz` file when the run ends.
`size` is the leading matrix dimension where it selects a metric bucket
(eof_optimize, fidelity_matrices, numpy.linalg) and -1 elsewhere.
"""

from __future__ import annotations

import array
import json
import time

import numpy as np

# (module, attribute, span name).  One entry per caller module: a function
# imported into several modules is wrapped in each of them.
WRAPPED = (
    # cli: the front end every workload enters through
    ("entcost.cli", "load_state", "serialize.load_state"),
    ("entcost.cli", "dumps_canonical", "serialize.dumps_canonical"),
    ("entcost.cli", "eof_optimize", "eof.eof_optimize"),
    ("entcost.cli", "cost_bracket", "regcost.cost_bracket"),
    ("entcost.cli", "formation_protocol", "formation.formation_protocol"),
    ("entcost.cli", "run_verification", "verify.run_verification"),
    ("entcost.cli", "ensemble_average", "qcore.ensemble_average"),
    # eof
    ("entcost.eof", "minimize_scalar", "eof.minimize_scalar"),
    ("entcost.eof", "eof_two_qubit_closed_form", "eof.eof_two_qubit_closed_form"),
    ("entcost.eof", "apply_locc", "eof.apply_locc"),
    ("entcost.eof", "bures_distance", "metrics.bures_distance"),
    ("entcost.eof", "ensemble_average", "qcore.ensemble_average"),
    ("entcost.eof", "sample_pure_state", "qcore.sample_pure_state"),
    ("entcost.eof", "sample_unitary", "qcore.sample_unitary"),
    # regcost
    ("entcost.regcost", "regularized_sequence", "regcost.regularized_sequence"),
    ("entcost.regcost", "product_ensemble", "regcost.product_ensemble"),
    ("entcost.regcost", "eof_optimize", "eof.eof_optimize"),
    ("entcost.regcost", "tensor_product", "qcore.tensor_product"),
    ("entcost.regcost", "tensor_pure", "qcore.tensor_pure"),
    # formation
    ("entcost.formation", "typical_set", "formation.typical_set"),
    ("entcost.formation", "truncated_state", "formation.truncated_state"),
    ("entcost.formation", "dilution_plan", "formation.dilution_plan"),
    ("entcost.formation", "dilution_fidelity", "formation.dilution_fidelity"),
    ("entcost.formation", "dilute_pure_state", "formation.dilute_pure_state"),
    ("entcost.formation", "fidelity_matrices", "metrics.fidelity_matrices"),
    ("entcost.formation", "ensemble_average", "qcore.ensemble_average"),
    ("entcost.formation", "tensor_power", "qcore.tensor_power"),
    ("entcost.formation", "tensor_pure", "qcore.tensor_pure"),
    ("entcost.formation", "pure_power", "qcore.pure_power"),
    # metrics
    ("entcost.metrics", "fidelity_matrices", "metrics.fidelity_matrices"),
    ("entcost.metrics", "uhlmann_fidelity", "metrics.uhlmann_fidelity"),
    ("entcost.metrics", "trace_distance", "metrics.trace_distance"),
    ("entcost.metrics", "tensor_matrix", "qcore.tensor_matrix"),
    # verify
    ("entcost.verify", "fuzz_monotonicity", "verify.fuzz_monotonicity"),
    ("entcost.verify", "fuzz_continuity", "verify.fuzz_continuity"),
    ("entcost.verify", "fuzz_metric_chain", "verify.fuzz_metric_chain"),
    ("entcost.verify", "fuzz_multiplicativity", "verify.fuzz_multiplicativity"),
    ("entcost.verify", "check_monotonicity", "eof.check_monotonicity"),
    ("entcost.verify", "continuity_bound", "eof.continuity_bound"),
    ("entcost.verify", "eof_two_qubit_closed_form", "eof.eof_two_qubit_closed_form"),
    ("entcost.verify", "sample_locc", "eof.sample_locc"),
    ("entcost.verify", "metric_relation_check", "metrics.metric_relation_check"),
    ("entcost.verify", "uhlmann_fidelity", "metrics.uhlmann_fidelity"),
    ("entcost.verify", "sample_density_matrix", "qcore.sample_density_matrix"),
    ("entcost.verify", "tensor_matrix", "qcore.tensor_matrix"),
    ("entcost.verify", "perturbed_pair", "verify.perturbed_pair"),
    # qcore calling itself
    ("entcost.qcore", "repair_psd", "qcore.repair_psd"),
    ("entcost.qcore", "tensor_matrix", "qcore.tensor_matrix"),
    ("entcost.qcore", "tensor_product", "qcore.tensor_product"),
    ("entcost.qcore", "tensor_pure", "qcore.tensor_pure"),
    # kernel boundary, looked up as np.linalg.<name> at every call
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "svd", "linalg.svd"),
)

ITEM_SPAN = "cli.main"


def _flops(name, args, kwargs):
    """Real floating-point operations of one LAPACK call, from its shape.

    Golub & Van Loan counts: Hermitian eigenvalues only 4n^3/3, with vectors
    9n^3; singular values only 4mn^2 - 4n^3/3, with both factors
    4m^2n + 8mn^2 + 9n^3 (m >= n).  Complex arithmetic counts 4x; stacked
    inputs multiply by the stack size.  Computed, not measured.
    """
    a = np.asarray(args[0])
    stack = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    scale = 4.0 if np.iscomplexobj(a) else 1.0
    if name == "linalg.svd":
        m, n = max(a.shape[-2:]), min(a.shape[-2:])
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        ops = (4 * m * m * n + 8 * m * n * n + 9 * n ** 3 if uv
               else 4 * m * n * n - 4 * n ** 3 / 3)
    else:
        n = a.shape[-1]
        ops = 9 * n ** 3 if name == "linalg.eigh" else 4 * n ** 3 / 3
    return stack * scale * ops


class Tracer:
    """Records spans while an item is active; counts derived per call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.size = array.array("i")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self.item_id = -1
        self.counts = {"eof.starts": 0, "eof.unconverged": 0,
                       "eof.random_starts_compared": 0, "eof.random_start_wins": 0,
                       "regcost.warm_start_calls": 0, "regcost.warm_start_best": 0,
                       "formation.typical_sequences": 0,
                       "serialize.report_bytes": 0, "linalg.flops_computed": 0.0}
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id, size):
        idx = len(self.start)
        self.name.append(name_id)
        self.size.append(size)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call_item(self, item_id, fn, *args):
        """Run one item under a root span; spans are recorded only inside it."""
        self.item_id = item_id
        idx = self._open(self._name_id(ITEM_SPAN), -1)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.item_id = -1

    def _wrap(self, original, name):
        name_id = self._name_id(name)
        observe = _OBSERVERS.get(name)
        sized = name in _SIZED

        def wrapper(*args, **kwargs):
            if self.item_id < 0:
                return original(*args, **kwargs)
            size = _leading_dim(args[0]) if sized else -1
            idx = self._open(name_id, size)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self.counts, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self, modules):
        for mod_name, attr, name in WRAPPED:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "size": np.frombuffer(self.size, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path):
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())


def _leading_dim(x):
    dim = getattr(x, "dim", None)      # QuantumState
    if dim is not None:
        return int(dim)
    return int(np.shape(x)[-1])


def _observe_eof(counts, name, args, kwargs, res):
    counts["eof.starts"] += res.restarts_used
    counts["eof.unconverged"] += int(not res.converged)
    seeds = len(kwargs.get("seed_ensembles", ()))
    history = res.value_history
    # a random start "wins" when it lowers the best value of the starts
    # before it; the first start overall has nothing to beat
    best = np.inf
    for i, value in enumerate(history):
        if i >= seeds and i > 0:
            counts["eof.random_starts_compared"] += 1
            counts["eof.random_start_wins"] += int(value < best)
        best = min(best, value)
    if seeds and len(history) > seeds:
        counts["regcost.warm_start_calls"] += 1
        counts["regcost.warm_start_best"] += int(
            min(history[:seeds]) <= min(history[seeds:]))


def _observe_typical(counts, name, args, kwargs, res):
    counts["formation.typical_sequences"] += len(res.sequences)


def _observe_dumps(counts, name, args, kwargs, res):
    counts["serialize.report_bytes"] += len(res.encode("utf-8"))


def _observe_linalg(counts, name, args, kwargs, res):
    counts["linalg.flops_computed"] += _flops(name, args, kwargs)


_OBSERVERS = {
    "eof.eof_optimize": _observe_eof,
    "formation.typical_set": _observe_typical,
    "serialize.dumps_canonical": _observe_dumps,
    "linalg.eigh": _observe_linalg,
    "linalg.eigvalsh": _observe_linalg,
    "linalg.svd": _observe_linalg,
}
_SIZED = {"eof.eof_optimize", "metrics.fidelity_matrices",
          "linalg.eigh", "linalg.eigvalsh", "linalg.svd"}


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _covered(sp, names, mask=None):
    """Seconds covered by spans named in `names` (optionally masked), counting
    a span nested inside another span of the same set only once."""
    ids = [sp["ids"][n] for n in names if n in sp["ids"]]
    if not ids:
        return 0.0
    member = np.isin(sp["name"], ids)
    if mask is not None:
        member &= mask
    parent = sp["parent"]
    inside = np.zeros_like(member)
    p = parent.copy()
    while True:
        live = p >= 0
        if not live.any():
            break
        inside[live] |= member[p[live]]
        p[live] = parent[p[live]]
    top = member & ~inside
    return float(sp["dur"][top].sum())


def _calls(sp, names, mask=None):
    ids = [sp["ids"][n] for n in names if n in sp["ids"]]
    member = np.isin(sp["name"], ids)
    if mask is not None:
        member &= mask
    return int(member.sum())


def _self_time(sp, name):
    if name not in sp["ids"]:
        return 0.0
    return float(sp["self"][sp["name"] == sp["ids"][name]].sum())


def layer_metrics(tracer):
    """Per-layer metrics: name -> (value, unit)."""
    arr = tracer.arrays()
    dur = arr["end"] - arr["start"]
    parent = arr["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    sp = dict(arr, dur=dur, self=dur - child[:dur.size],
              ids={n: i for i, n in enumerate(tracer.names)})
    size = arr["size"]
    c = tracer.counts
    tensor = ("qcore.tensor_power", "qcore.tensor_product",
              "qcore.tensor_matrix", "qcore.tensor_pure", "qcore.pure_power")
    sample = ("qcore.sample_density_matrix", "qcore.sample_pure_state",
              "qcore.sample_unitary")
    m = {
        "eof.optimize_calls": (_calls(sp, ["eof.eof_optimize"]), "count"),
        "eof.optimize_s.d4": (_covered(sp, ["eof.eof_optimize"], size == 4), "s"),
        "eof.optimize_s.d16": (_covered(sp, ["eof.eof_optimize"], size == 16), "s"),
        "eof.starts": (c["eof.starts"], "count"),
        "eof.unconverged": (c["eof.unconverged"], "count"),
        "eof.restart_win_ratio": (_ratio(c["eof.random_start_wins"],
                                         c["eof.random_starts_compared"]), "ratio"),
        "eof.random_starts_compared": (c["eof.random_starts_compared"], "count"),
        "eof.linesearch_calls": (_calls(sp, ["eof.minimize_scalar"]), "count"),
        "eof.linesearch_s": (_covered(sp, ["eof.minimize_scalar"]), "s"),
        "eof.closed_form_s": (_covered(sp, ["eof.eof_two_qubit_closed_form"]), "s"),
        "eof.locc_s": (_covered(sp, ["eof.sample_locc", "eof.apply_locc"]), "s"),
        "regcost.trace_s": (_covered(sp, ["regcost.regularized_sequence"]), "s"),
        "regcost.product_ensemble_s": (_covered(sp, ["regcost.product_ensemble"]), "s"),
        "regcost.warm_start_best_ratio": (_ratio(c["regcost.warm_start_best"],
                                                 c["regcost.warm_start_calls"]), "ratio"),
        "regcost.warm_start_calls": (c["regcost.warm_start_calls"], "count"),
        "formation.protocol_s": (_covered(sp, ["formation.formation_protocol"]), "s"),
        "formation.self_s": (_self_time(sp, "formation.formation_protocol"), "s"),
        "formation.typical_set_s": (_covered(sp, ["formation.typical_set"]), "s"),
        "formation.truncated_state_s": (_covered(sp, ["formation.truncated_state"]), "s"),
        "formation.dilution_s": (_covered(sp, ["formation.dilution_plan",
                                               "formation.dilution_fidelity",
                                               "formation.dilute_pure_state"]), "s"),
        "formation.typical_sequences": (c["formation.typical_sequences"], "count"),
        "metrics.fidelity_calls": (_calls(sp, ["metrics.fidelity_matrices"]), "count"),
        "metrics.fidelity_s.small": (_covered(sp, ["metrics.fidelity_matrices"],
                                              size <= 16), "s"),
        "metrics.fidelity_s.large": (_covered(sp, ["metrics.fidelity_matrices"],
                                              size >= 256), "s"),
        "metrics.trace_distance_s": (_covered(sp, ["metrics.trace_distance"]), "s"),
        "metrics.chain_s": (_covered(sp, ["metrics.metric_relation_check"]), "s"),
        "qcore.repair_psd_calls": (_calls(sp, ["qcore.repair_psd"]), "count"),
        "qcore.repair_psd_s": (_covered(sp, ["qcore.repair_psd"]), "s"),
        "qcore.tensor_s": (_covered(sp, tensor), "s"),
        "qcore.sample_s": (_covered(sp, sample), "s"),
        "verify.monotonicity_s": (_covered(sp, ["verify.fuzz_monotonicity"]), "s"),
        "verify.continuity_s": (_covered(sp, ["verify.fuzz_continuity"]), "s"),
        "verify.metric_chain_s": (_covered(sp, ["verify.fuzz_metric_chain"]), "s"),
        "verify.multiplicativity_s": (_covered(sp, ["verify.fuzz_multiplicativity"]), "s"),
        "serialize.load_s": (_covered(sp, ["serialize.load_state"]), "s"),
        "serialize.dumps_s": (_covered(sp, ["serialize.dumps_canonical"]), "s"),
        "serialize.report_bytes": (c["serialize.report_bytes"], "B"),
        "cli.self_s": (_self_time(sp, ITEM_SPAN), "s"),
    }
    for kernel in ("eigh", "eigvalsh", "svd"):
        m[f"linalg.{kernel}_calls"] = (_calls(sp, [f"linalg.{kernel}"]), "count")
        m[f"linalg.{kernel}_s"] = (_covered(sp, [f"linalg.{kernel}"]), "s")
    m["linalg.flops_computed"] = (c["linalg.flops_computed"], "flop")
    m["trace.spans"] = (len(tracer.start), "count")
    return m


def _ratio(num, base):
    return num / base if base else 0.0
