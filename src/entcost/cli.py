"""Command-line front end.

Subcommands: eof, metrics, regularize, formation, verify, demo-divergence.
Every report is a JSON envelope {tool_version, seed, config, result} with
floats at 17 significant digits, so a rerun with the same configuration and
inputs is byte-identical.  Exit codes: 0 success, 1 property violation,
2 input or usage error, 3 internal error (an unexpected exception, reported
on stderr).  The ENTCOST_SEED environment variable overrides the
default seed; an explicit --seed flag wins over both.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import traceback
from contextlib import contextmanager

import numpy as np

from . import __version__
from .eof import DEFAULT_IMPROVEMENT_TOL, eof_optimize
from .formation import formation_protocol
from .metrics import divergence_sequence, metric_relation_check
from .qcore import (
    Ensemble,
    PureState,
    QuantumState,
    RandomSource,
    StateValidationError,
    ensemble_average,
)
from .regcost import cost_bracket
from .serialize import dumps_canonical, load_state
from .verify import run_verification

SEED_ENV_VAR = "ENTCOST_SEED"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    pass


def _number(kind, least, *, strict=False):
    """argparse type: a finite `kind` >= least (> least when strict).

    A rejected value is a usage error, so argparse exits with EXIT_INPUT
    before any work starts.
    """
    bound = f"> {least}" if strict else f">= {least}"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > least if strict else value >= least)):
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} {bound}, got {text!r}")
        return value
    return parse


_POSITIVE_INT = _number(int, 1)
_COUNT = _number(int, 0)
_POSITIVE_FLOAT = _number(float, 0.0, strict=True)
_NONNEGATIVE_FLOAT = _number(float, 0.0)


@contextmanager
def _library_input_checks():
    """Turn the library's own argument checks (ValueError) into input errors.

    They reject what only the input can decide, such as an ensemble size below
    the state's rank or a run past a work limit.  A failed linear-algebra
    kernel is a ValueError too, but an internal one.
    """
    try:
        yield
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _COUNT(env)
        except argparse.ArgumentTypeError as exc:
            raise InputError(f"{SEED_ENV_VAR}: {exc}") from exc
    return 0


def _load(path):
    try:
        return load_state(path)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except (ValueError, KeyError, TypeError, StateValidationError) as exc:
        raise InputError(f"failed to load {path}: {exc}") from exc


def _as_density(obj):
    if isinstance(obj, QuantumState):
        return obj
    if isinstance(obj, PureState):
        return obj.to_state()
    if isinstance(obj, Ensemble):
        return ensemble_average(obj)
    raise InputError(f"unsupported input object {type(obj)!r}")


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _config(args):
    """The parsed flags a report records: all but those saying where output goes."""
    return {k: v for k, v in vars(args).items()
            if k not in ("seed", "output", "csv", "format")}


def _envelope(seed, args, result):
    return dumps_canonical({
        "tool_version": __version__,
        "seed": seed,
        "config": _config(args),
        "result": result,
    })


def _csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format(cell, ".17g"))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eof(args):
    seed = _resolve_seed(args)
    rho = _as_density(_load(args.state))
    with _library_input_checks():
        res = eof_optimize(rho, ensemble_size=args.ensemble_size,
                           restarts=args.restarts, rng=RandomSource(seed),
                           improvement_tol=args.tol)
    _emit(_envelope(seed, args, res), args.output)
    return EXIT_OK


def _cmd_metrics(args):
    seed = _resolve_seed(args)
    rho = _as_density(_load(args.state_a))
    sigma = _as_density(_load(args.state_b))
    if rho.dims != sigma.dims:
        raise InputError(f"dims mismatch: {rho.dims} vs {sigma.dims}")
    report = metric_relation_check(rho, sigma)
    _emit(_envelope(seed, args, report), args.output)
    return EXIT_OK if report.chain_holds else EXIT_VIOLATION


def _cmd_regularize(args):
    seed = _resolve_seed(args)
    rho = _as_density(_load(args.state))
    with _library_input_checks():
        trace, bracket = cost_bracket(rho, args.n_max, rng=RandomSource(seed),
                                      restarts=args.restarts,
                                      ensemble_size=args.ensemble_size)
    _emit(_envelope(seed, args, {"trace": trace, "bracket": bracket}),
          args.output)
    if args.csv:
        rows = [(e.n, e.rate) for e in trace.entries]
        _emit(_csv(rows, ("n", "rate")), args.csv)
    return EXIT_OK


def _cmd_formation(args):
    seed = _resolve_seed(args)
    obj = _load(args.state)
    with _library_input_checks():
        if isinstance(obj, Ensemble):
            ensemble = obj
            rho = ensemble_average(ensemble)
        else:
            rho = _as_density(obj)
            ensemble = eof_optimize(rho, restarts=args.restarts,
                                    rng=RandomSource(seed)).ensemble
        res = formation_protocol(rho, ensemble, args.n, args.delta1,
                                 args.delta2, window=args.window)
    _emit(_envelope(seed, args, res), args.output)
    if args.csv:
        # the sweep's last row is the run reported above
        runs = [formation_protocol(rho, ensemble, n, args.delta1, args.delta2,
                                   window=args.window) for n in range(1, args.n)]
        rows = [(r.n, r.m, r.rate, r.eps1, r.eps3, r.bures_bound,
                 r.exact_bures if r.exact_bures is not None else "")
                for r in runs + [res]]
        _emit(_csv(rows, ("n", "m", "rate", "eps1", "eps3", "bures_bound",
                          "exact_bures")), args.csv)
    ok = False not in (res.fid1_holds, res.fid2_holds, res.triangle_holds)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_verify(args):
    seed = _resolve_seed(args)
    report, clean = run_verification(
        seed, pairs=args.pairs, channels=args.channels,
        perturbed=args.perturbed, quadruples=args.quadruples)
    _emit(_envelope(seed, args, report), args.output)
    return EXIT_OK if clean else EXIT_VIOLATION


def _cmd_demo_divergence(args):
    seed = _resolve_seed(args)
    if not 0.0 <= args.fidelity <= 1.0:
        raise InputError("per-copy fidelity must lie in [0, 1]")
    rows = divergence_sequence(args.fidelity, args.k_max)
    if args.format == "csv":
        _emit(_csv(rows, ("k", "fidelity", "bures")), args.output)
    else:
        _emit(_envelope(seed, args, rows), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="entcost",
        description="Entanglement-of-formation laboratory: ensemble "
                    "optimization, metric checks, regularization traces, and "
                    "typical-set formation simulations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=_COUNT, default=None,
                       help="random seed (default 0, or ENTCOST_SEED)")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("eof", help="optimize the entanglement of formation")
    p.add_argument("state", help="state or ensemble JSON file")
    p.add_argument("--ensemble-size", type=_POSITIVE_INT, default=None)
    p.add_argument("--restarts", type=_POSITIVE_INT, default=4,
                   help="random Haar-isometry starts, refined together as one "
                        "stack of isometries; the lowest value wins")
    p.add_argument("--tol", type=_POSITIVE_FLOAT,
                   default=DEFAULT_IMPROVEMENT_TOL,
                   help="per-iteration improvement tolerance in ebits: starts "
                        "refined together stop together after five iterations "
                        "in a row whose summed gain is below it")
    common(p)

    p = sub.add_parser("metrics", help="fidelity, Bures and trace distance report")
    p.add_argument("state_a")
    p.add_argument("state_b")
    common(p)

    p = sub.add_parser("regularize", help="finite-n regularization trace")
    p.add_argument("state")
    p.add_argument("--n-max", type=_POSITIVE_INT, default=2)
    p.add_argument("--restarts", type=_COUNT, default=2,
                   help="random Haar-isometry starts of the n = 1 step (at "
                        "least one), refined together as one stack; every "
                        "n >= 2 refines only the product warm start")
    p.add_argument("--ensemble-size", type=_POSITIVE_INT, default=None)
    p.add_argument("--csv", default=None, help="also write (n, rate) CSV here")
    common(p)

    p = sub.add_parser("formation", help="simulate the typical-set formation protocol")
    p.add_argument("state", help="state or ensemble JSON file")
    p.add_argument("--n", type=_POSITIVE_INT, default=4)
    p.add_argument("--delta1", type=_POSITIVE_FLOAT, default=0.5)
    p.add_argument("--delta2", type=_NONNEGATIVE_FLOAT, default=0.25)
    p.add_argument("--window", choices=("paper", "plain"), default="paper")
    p.add_argument("--restarts", type=_POSITIVE_INT, default=4,
                   help="optimizer restarts when only a density matrix is given")
    p.add_argument("--csv", default=None, help="also write a sweep over n here")
    common(p)

    p = sub.add_parser("verify", help="run the property fuzzing suite")
    p.add_argument("--pairs", type=_COUNT, default=1000,
                   help="metric-chain sample pairs")
    p.add_argument("--channels", type=_COUNT, default=100,
                   help="monotonicity (state, channel) pairs")
    p.add_argument("--perturbed", type=_COUNT, default=100,
                   help="continuity perturbed pairs")
    p.add_argument("--quadruples", type=_COUNT, default=100,
                   help="multiplicativity tensor quadruples")
    common(p)

    p = sub.add_parser("demo-divergence",
                       help="tensor-power Bures divergence of a fixed per-copy fidelity")
    p.add_argument("--fidelity", type=float, default=0.99)
    p.add_argument("--k-max", type=_POSITIVE_INT, default=200)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    common(p)

    return parser


@functools.cache
def _parser():
    """The parser, built on the first `main` call and kept for the process:
    building it costs milliseconds, mostly argparse's message lookups."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up per call, so a handler replaced at run time is the one run
    handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
    try:
        return handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StateValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
