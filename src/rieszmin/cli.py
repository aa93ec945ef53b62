"""Command-line front end.

One JSON config file drives each run; the handful of global flags override
config values.  All outputs are deterministic given the config (timestamps
are kept out of the result payloads), so reruns are byte-identical.

Exit codes: 0 success, 1 usage/parse error, 2 domain/validation failure,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import MISSING, astuple, fields, is_dataclass

import numpy as np

from .diagnostics import TraceRow, cluster_classify, el_residual, gamma_trace
from .energy import load_configuration_csv, save_configuration_csv, worker_threads
from .errors import NumericalError, UsageError, ValidationError
from .io import (DEFAULT_SEED, _write_rows, config_number, config_path, dump_report, flag,
                 load_json_config, measure_from_config, real, whole)
from .kernels import CheckScheme, check_assumptions, kernel_from_config
from .minimizer import InitSpec, MinimizeSettings, minimize
from .quantizer import quantize
from .svg import line_chart_svg, scatter_svg


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code is 2; we use 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rieszmin",
                     description="interaction-energy experiments from config files")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override config seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads for the pair passes (capped at the core "
                             "count); results are identical for any value")
    common.add_argument("--svg", action="store_true", help="emit SVG plots (2-d only)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-kernel", parents=[common],
                   help="run the kernel assumption checks")
    sub.add_parser("quantize", parents=[common],
                   help="quantize a measure into n points")
    sub.add_parser("minimize", parents=[common],
                   help="multi-start minimization of the discrete energy")
    sub.add_parser("trace", parents=[common],
                   help="quantize along an n schedule and trace energies")
    diag = sub.add_parser("diagnose", parents=[common],
                          help="optimality and clustering diagnostics")
    diag.add_argument("configuration", nargs="?", default=None,
                      help="configuration CSV (falls back to config key)")
    return parser


def _setup(args):
    config = load_json_config(args.config)
    seed = args.seed if args.seed is not None else config_number(config, "seed", int, DEFAULT_SEED)
    if seed < 0:
        raise UsageError(f"seed must be non-negative, got {seed}")
    base_dir = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out or (config_path(config, "out", base_dir) if "out" in config else ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out_dir}: {exc.strerror}") from None
    return config, seed, out_dir, base_dir


def _from_block(config, base_dir, key, build, required=True):
    """build(config[key], base_dir), a kernel or measure; None for an absent block
    that is not required, and a UsageError for any other missing block or key."""
    if key not in config:
        if required:
            raise UsageError(f"config is missing the '{key}' block")
        return None
    try:
        return build(config[key], base_dir)
    except KeyError as exc:
        raise UsageError(f"config '{key}' block is missing key {exc}") from None


# a setting's cast by the type of its default (MISSING: a sub-block)
_CASTS = {bool: flag, int: int, float: float, str: str,
          tuple: lambda value: tuple(map(real, value)), type(MISSING): lambda block: block}


def _block(block, name) -> dict:
    """A config block that must be a mapping; absent or null reads as empty."""
    block = {} if block is None else block
    if not isinstance(block, dict):
        raise UsageError(f"config {name!r} block must be a mapping")
    return block


def _check_keys(block, known, name) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise UsageError(f"config {name!r} block has unknown key(s) {unknown}")


def _settings(block, name, of, names=()) -> dict:
    """The keys present in settings block ``name`` (absent or null: empty), each
    cast by the type of its default: a field of the dataclass ``of`` but the seed
    the caller sets, or a parameter ``names`` of the function ``of``."""
    if is_dataclass(of):
        defaults = {f.name: f.default for f in fields(of) if f.name != "seed"}
    else:
        defaults = {key: inspect.signature(of).parameters[key].default for key in names}
    block = _block(block, name)
    _check_keys(block, defaults, name)
    return {key: config_number(block, key, _CASTS[type(defaults[key])], defaults[key])
            for key in block}


def _minimize_settings(config, seed, base_dir=".") -> MinimizeSettings:
    block = _settings(config.get("minimize"), "minimize", MinimizeSettings)
    init_block = _block(block.get("init"), "minimize.init")
    kind = init_block.get("kind", "random-gaussian")
    # the one key each kind reads besides 'kind'
    key = "measure" if kind == "quantizer-seeded" else "path" if kind == "user" else "scale"
    _check_keys(init_block, ("kind", key), "minimize.init")
    if kind == "quantizer-seeded":
        init = InitSpec(kind=kind, measure=_from_block(init_block, base_dir, "measure",
                                                       measure_from_config))
    elif kind == "user":
        if "path" not in init_block:
            raise UsageError("config 'minimize.init' block of kind 'user' is missing key 'path'")
        start = load_configuration_csv(config_path(init_block, "path", base_dir))
        init = InitSpec(kind=kind, config=start)
    else:
        init = InitSpec(kind=kind, scale=config_number(init_block, "scale", float, 1.0))
    return MinimizeSettings(**dict(block, init=init), seed=seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_check_kernel(args) -> int:
    config, seed, out_dir, base_dir = _setup(args)
    kernel = _from_block(config, base_dir, "kernel", kernel_from_config)
    witness = _from_block(config, base_dir, "witness", measure_from_config, required=False)
    try:
        scheme = CheckScheme(**_settings(config.get("check_scheme"), "check_scheme", CheckScheme),
                             seed=seed)
    except ValidationError as exc:  # a value out of range, read like one of the wrong type
        raise UsageError(f"config 'check_scheme' block: {exc}") from None
    report = check_assumptions(kernel, witness, scheme)
    for line in (
        f"lower bound        : {report.h1_lower_bound:.6g} "
        f"({'finite' if report.h1_lower_bound_finite else 'UNBOUNDED'})",
        f"local integrability: {'pass' if report.h1_local_integrability else 'FAIL'}"
        + (f" (int |g| over B1 = {report.h1_integral_abs:.6g})"
           if report.h1_integral_abs is not None else ""),
        f"liminf at infinity : {report.h2_liminf_at_infinity:.6g} "
        f"({'pass' if report.h2_pass else 'FAIL'})",
        f"monotone near 0    : "
        + {True: "pass", False: "FAIL", None: "skipped (no radius declared)"}[
            report.h3_monotone_near_origin],
        (f"witness energy     : {report.h4_witness_energy:.6g} "
         f"+- {report.h4_std_error:.2g} ({'pass' if report.h4_pass else 'FAIL'})")
        if report.h4_witness_energy is not None else "witness energy     : (no witness)",
        f"overall            : {'PASS' if report.passed else 'FAIL'}",
    ):
        print(line)
    dump_report(report.as_dict(), os.path.join(out_dir, "assumptions.json"))
    return 0 if report.passed else 2


def _cmd_quantize(args) -> int:
    config, seed, out_dir, base_dir = _setup(args)
    measure = _from_block(config, base_dir, "measure", measure_from_config)
    kernel = _from_block(config, base_dir, "kernel", kernel_from_config, required=False)
    if "n" not in config:
        raise UsageError("config is missing 'n'")
    block = _settings(config.get("quantize"), "quantize", quantize, ("strategy", "k"))
    result = quantize(measure, config_number(config, "n", int), kernel, **block, seed=seed)
    save_configuration_csv(result.config, os.path.join(out_dir, "quantized.csv"))
    dump_report(result.sidecar(), os.path.join(out_dir, "quantize.json"))
    print(f"quantized {result.config.n} points -> {out_dir}/quantized.csv")
    if args.svg and measure.dim == 2:
        with open(os.path.join(out_dir, "quantized.svg"), "w") as fh:
            fh.write(scatter_svg(result.config.points, title="quantized configuration"))
    return 0


def _cmd_minimize(args) -> int:
    config, seed, out_dir, base_dir = _setup(args)
    kernel = _from_block(config, base_dir, "kernel", kernel_from_config)
    if "n" not in config:
        raise UsageError("config is missing 'n'")
    n = config_number(config, "n", int)
    dim = config_number(config, "dim", int, kernel.dim)
    settings = _minimize_settings(config, seed, base_dir)
    result = minimize(kernel, n, dim, settings)
    save_configuration_csv(result.config, os.path.join(out_dir, "minimized.csv"))
    dump_report(result.as_dict(), os.path.join(out_dir, "minimize.json"))
    _write_rows(os.path.join(out_dir, "history.csv"), [("energy", "grad_norm"), *result.history])
    print(f"n={n}: energy {result.energy:.12g}, grad norm {result.grad_norm:.3g}, "
          f"{'converged' if result.converged else 'max iterations reached'} "
          f"after {result.iterations} iterations")
    if args.svg and dim == 2:
        with open(os.path.join(out_dir, "minimized.svg"), "w") as fh:
            fh.write(scatter_svg(result.config.points, title="minimizer"))
    return 0


def _cmd_trace(args) -> int:
    config, seed, out_dir, base_dir = _setup(args)
    kernel = _from_block(config, base_dir, "kernel", kernel_from_config)
    measure = _from_block(config, base_dir, "measure", measure_from_config)
    if not config.get("n_list"):
        raise UsageError("config must provide a nonempty 'n_list'")
    n_list = config_number(config, "n_list", lambda ns: [whole(n) for n in ns])
    block = _settings(config.get("trace"), "trace", gamma_trace,
                      ("with_minimization", "strategy", "k", "mc_samples"))
    settings = _minimize_settings(config, seed, base_dir)
    trace = gamma_trace(kernel, measure, n_list, **block, seed=seed, minimize_settings=settings)
    _write_rows(os.path.join(out_dir, "trace.csv"),
                [[f.name for f in fields(TraceRow)], *map(astuple, trace.rows)])
    dump_report(trace.as_dict(), os.path.join(out_dir, "trace.json"))
    print(f"trace over n={n_list}: target energy "
          f"{trace.target_energy:.6g} +- {trace.target_std_error:.2g}")
    for row in trace.rows:
        print(f"  n={row.n:6d}  quantized {row.energy_quantized:+.6f}  "
              f"bl {row.bl_distance:.5f}  diameter {row.diameter:.4f}")
    if args.svg and measure.dim == 2:
        series = {"quantized": [r.energy_quantized for r in trace.rows]}
        if any(r.energy_minimized is not None for r in trace.rows):
            series["minimized"] = [r.energy_minimized for r in trace.rows]
        with open(os.path.join(out_dir, "trace.svg"), "w") as fh:
            fh.write(line_chart_svg([r.n for r in trace.rows], series,
                                    title="energy vs n (log2 n)"))
    return 0


def _cmd_diagnose(args) -> int:
    config, seed, out_dir, base_dir = _setup(args)
    kernel = _from_block(config, base_dir, "kernel", kernel_from_config)
    if not (args.configuration or config.get("configuration")):
        raise UsageError("diagnose needs a configuration CSV (argument or config key)")
    # the argument is relative to the working directory, the key to the config's
    cfg = load_configuration_csv(args.configuration
                                 or config_path(config, "configuration", base_dir))
    block = _settings(config.get("diagnostics"), "diagnostics", cluster_classify, ("gap_factor",))
    el = el_residual(cfg, kernel, seed)
    clusters = cluster_classify(cfg, **block)
    payload = {"el": el.as_dict(), "clusters": clusters.as_dict(),
               "support_diameter": el.diameter, "energy": el.energy.as_dict()}
    dump_report(payload, os.path.join(out_dir, "diagnose.json"))
    print(f"potential spread {el.potential_spread:.6g}, mean {el.mean_potential:.6g}")
    print(f"classification: {clusters.classification} "
          f"(largest fraction {clusters.largest_fraction:.3f})")
    if args.svg and cfg.dim == 2:
        labels = np.zeros(cfg.n, dtype=int)
        for idx, cluster in enumerate(clusters.clusters):
            labels[cluster.indices] = idx
        with open(os.path.join(out_dir, "diagnose.svg"), "w") as fh:
            fh.write(scatter_svg(cfg.points, labels=labels.tolist(),
                                 title=clusters.classification))
    return 0


_COMMANDS = {
    "check-kernel": _cmd_check_kernel,
    "quantize": _cmd_quantize,
    "minimize": _cmd_minimize,
    "trace": _cmd_trace,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        with worker_threads(args.threads):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
