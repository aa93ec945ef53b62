"""Benchmark of the rieszmin CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 30     # every workload
    python3 perfbench/run.py --workload all --smoke          # tiny sizes, seconds

Run it from the root of a checkout: the program is `python3 -m rieszmin.cli`
with ./src on PYTHONPATH.  Inputs are made from --seed; each CLI invocation
of a run gets its own seed derived from it.  Every invocation's outputs are
checked (workloads.py); an invocation that exits nonzero or fails a check
counts as failed.

--trace 0 times the real CLI: invocations are repeated until --seconds have
passed, and the medians of wall time (spawn to exit) and per-process peak
RSS are reported, with the median of several set-up probes (interpreter
start, `import rieszmin.cli`, config parse).  --trace 1 runs each
invocation twice, once plainly and once in-process under the tracer
(tracer.py), checks that both produce byte-identical result payloads, and
reports the per-layer metrics, the tracing overhead and the share of wall
time the spans cover.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Files go
to ./.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import PAIR_PASSES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# metric names and units are the ones BENCHMARK.json declares
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# computed from argument shapes by the tracer, not counted by the program
COMPUTED = ("evals", "pairs", "pair_sums", "ns_per_pair", "energy_calls_per_iter", "s_per_iter")

# one pair energy pass at n=4000 took 0.90 s when the benchmark was defined
# (2 cores, 7 GB); the sanity line compares s/pair against it
BASELINE_S_PER_PAIR = 0.90 / (4000 * 3999)
SANITY_SIZES = (2116, 4096)

# set-up probes per run, taken after one warm-up probe and before the first
# invocation, so that none follows a heavy child closely
SETUP_PROBES = 12
# a run must end within 180 s; invocations still going at this point are killed
RUN_LIMIT_S = 165.0


@dataclass
class Op:
    """One CLI invocation and what came of it."""

    label: str
    wall_s: float
    peak_rss_mb: float
    errors: List[str] = field(default_factory=list)
    summary: Optional[dict] = None


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv, log_prefix: str, env: dict, timeout: float):
    """Run argv to completion; returns (exit code, wall s, peak RSS MB).

    Wall time runs from just before the spawn to the reaped exit; the peak
    RSS is this child's own (wait4), not the maximum over all children.
    """
    with open(log_prefix + ".stdout", "w") as out, open(log_prefix + ".stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _check(workload, inv_dir, out_dir, smoke, code, log_prefix) -> List[str]:
    if code != 0:
        with open(log_prefix + ".stderr") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        return [f"exit code {code}" + (f": {tail[0]}" if tail else "")]
    try:
        return workload.check(inv_dir, out_dir, smoke)
    except Exception:  # a malformed output is a failed check, not a crash
        return ["output check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]


def _result_payloads(out_dir: str) -> dict:
    """Every output file, with JSON reports reduced to their `result` part."""
    payloads = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            data = json.dumps(json.loads(data)["result"], sort_keys=True).encode()
        payloads[name] = data
    return payloads


class Runner:
    def __init__(self, root: str, seed: int, seconds: float, smoke: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.env = _env(root)
        self.threads = str(_nproc())
        self.deadline = math.inf

    def _cli_tail(self, out_dir):
        return ["--out", out_dir, "--threads", self.threads]

    def _spawn(self, argv, log):
        return _spawn(argv, log, self.env, max(1.0, self.deadline - time.monotonic()))

    def setup_probe(self, args, log) -> float:
        """Seconds from spawning the CLI to the start of its command body."""
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), *args,
                *self._cli_tail(log + "-out")]
        start = time.monotonic()
        code, _, _ = self._spawn(argv, log)
        with open(log + ".stdout") as fh:
            reached = fh.read().strip()
        if code != 0 or not reached:
            raise RuntimeError(f"set-up probe failed (exit {code}); see {log}.stderr")
        return float(reached) - start

    def invoke(self, workload, inv_dir, args, traced: bool) -> Op:
        tag = "traced" if traced else "plain"
        out_dir = os.path.join(inv_dir, f"out-{tag}")
        log = os.path.join(inv_dir, tag)
        summary_path = os.path.join(inv_dir, "trace-summary.json")
        head = ([sys.executable, os.path.join(HERE, "tracer.py"), summary_path] if traced
                else [sys.executable, "-m", "rieszmin.cli"])
        code, wall, rss = self._spawn([*head, *args, *self._cli_tail(out_dir)], log)
        op = Op(label=f"{os.path.basename(inv_dir)}/{tag}", wall_s=wall, peak_rss_mb=rss,
                errors=_check(workload, inv_dir, out_dir, self.smoke, code, log))
        if traced and code == 0:
            with open(summary_path) as fh:
                op.summary = json.load(fh)
        return op

    def run(self, workload, trace: bool) -> dict:
        wdir = os.path.join(self.root, ".bench_out", workload.name)
        shutil.rmtree(wdir, ignore_errors=True)
        os.makedirs(wdir)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        plain: List[Op] = []
        traced: List[Op] = []
        rounds: List[float] = []
        start = time.perf_counter()
        for i in itertools.count():
            inv_dir = os.path.join(wdir, f"inv{i}")
            os.makedirs(inv_dir)
            # each invocation gets its own inputs, derived from the run seed
            args = workload.write_inputs(self.seed * 1000 + i, inv_dir, self.smoke)
            if i == 0:  # a warm-up probe fills bytecode caches as for any later user
                self.setup_probe(args, os.path.join(inv_dir, "warmup"))
                setup = [self.setup_probe(args, os.path.join(inv_dir, f"setup{j}"))
                         for j in range(SETUP_PROBES)]
            round_start = time.perf_counter()
            plain.append(self.invoke(workload, inv_dir, args, traced=False))
            if trace:
                op = self.invoke(workload, inv_dir, args, traced=True)
                if not op.errors and not plain[-1].errors:
                    same = (_result_payloads(os.path.join(inv_dir, "out-plain"))
                            == _result_payloads(os.path.join(inv_dir, "out-traced")))
                    if not same:
                        op.errors.append("traced result payloads differ from the plain run's")
                traced.append(op)
            rounds.append(time.perf_counter() - round_start)
            # stop before a round that would end past the measuring time
            elapsed = time.perf_counter() - start
            if self.smoke or elapsed + statistics.median(rounds) > self.seconds:
                break
        return {"workload": workload.name, "seed": self.seed, "setup_s": setup,
                "plain": plain, "traced": traced}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(run: dict) -> dict:
    plain = run["plain"]
    return {
        "wall_s": statistics.median(op.wall_s for op in plain),
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in plain),
    }


def layer_metrics(summary: dict, traced_wall_s: float) -> dict:
    spans, counts = summary["spans"], summary["counts"]
    nested = summary["nested_calls"]

    def span(name, stat):
        return spans.get(name, {}).get(stat, 0)

    iterations = counts.get("minimizer.iterations", 0)
    pairs = sum(counts.get(f"{p}.pairs", 0) for p in PAIR_PASSES)
    pass_s = sum(span(p, "total_s") for p in PAIR_PASSES)
    minimize_pair_sums = nested.get("minimizer.minimize", {}).get("energy.pair_interaction_sum", 0)
    main_children_s = span("cli.main", "total_s") - span("cli.main", "self_s")
    out = {
        "energy.pair_pass.ns_per_pair": 1e9 * pass_s / pairs if pairs else 0.0,
        "quantizer.select_representatives.pair_sums": nested.get(
            "quantizer.select_representatives", {}).get("energy.pair_interaction_sum", 0),
        "minimizer.energy_calls_per_iter":
            minimize_pair_sums / iterations if iterations else 0.0,
        "minimizer.s_per_iter":
            span("minimizer.minimize", "total_s") / iterations if iterations else 0.0,
        "diagnostics.cluster_classify.peak_mb":
            summary["peak_mb"].get("diagnostics.cluster_classify", 0.0),
        "cli.import_s": summary["import_s"],
        "trace.span_coverage": 100.0 * (summary["import_s"] + main_children_s) / traced_wall_s,
    }
    for name in PER_LAYER:
        if name in out or name.startswith("trace."):
            continue
        head, stat = name.rsplit(".", 1)
        if stat in ("calls", "self_s"):
            out[name] = span(head, stat)
        else:
            out[name] = counts.get(name, 0)
    return out


def traced_metrics(run: dict) -> dict:
    traced = [op for op in run["traced"] if op.summary is not None]
    # the traced processes' wall times without the tracemalloc replay
    walls = [op.wall_s - op.summary["untimed_s"] for op in traced]
    per_op = [layer_metrics(op.summary, wall) for op, wall in zip(traced, walls)]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out["trace.overhead_s"] = (statistics.median(walls)
                               - statistics.median(op.wall_s for op in run["plain"]))
    return out


def sanity_lines(run: dict) -> List[str]:
    lines = []
    for op in run["traced"]:
        if op.summary is None:
            continue
        for n in SANITY_SIZES:
            durations = op.summary["pair_sum_s_by_n"].get(str(n))
            if durations:
                per_pair = statistics.median(durations) / (n * (n - 1))
                lines.append(
                    f"  sanity (not gated): energy.pair_pass at n={n}: "
                    f"{per_pair * 1e9:.1f} ns/pair over {len(durations)} passes, "
                    f"{per_pair / BASELINE_S_PER_PAIR:.2f}x the "
                    f"baseline {BASELINE_S_PER_PAIR * 1e9:.1f} ns/pair (0.90 s at n=4000)")
        break
    return lines


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy prints instead of returning
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "nproc": _nproc(),
        "mem_total_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
    }


def _spread(values) -> str:
    values = list(values)
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def report(run: dict, trace: bool, workload) -> dict:
    ops = run["plain"] + run["traced"]
    failed = [op for op in ops if op.errors]
    print(f"workload {run['workload']}  seed {run['seed']}  "
          f"invocations {len(run['plain'])} plain, {len(run['traced'])} traced")
    print(f"  predicted split: {workload.prediction}")
    for op in failed:
        for error in op.errors:
            print(f"  FAILED {op.label}: {error}")
    e2e = end_to_end_metrics(run)
    print(f"  wall_s       {e2e['wall_s']:10.4f} s    {_spread(op.wall_s for op in run['plain'])}")
    print(f"  setup_s      {e2e['setup_s']:10.4f} s    {_spread(run['setup_s'])}")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:10.1f} MB   "
          f"{_spread(op.peak_rss_mb for op in run['plain'])}")
    print(f"  fail_frac    {len(failed) / len(ops):10.4f}      "
          f"{len(failed)} of {len(ops)} operations")
    if not trace:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    else:
        layers = traced_metrics(run) if any(op.summary for op in run["traced"]) else {}
        for name, unit in PER_LAYER.items():
            if name in layers:
                note = " (computed)" if name.rsplit(".", 1)[1] in COMPUTED else ""
                print(f"  {name:45s} {layers[name]:14.6g} {unit}{note}")
        missing = set().union(*(op.summary["missing_probes"]
                                for op in run["traced"] if op.summary))
        for probe in sorted(missing):
            print(f"  probe {probe} not found: its counts read 0")
        for line in sanity_lines(run):
            print(line)
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
    return {"attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one invocation per workload")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rieszmin", "cli.py")):
        print(f"error: {root} holds no src/rieszmin; run from the root of a rieszmin checkout",
              file=sys.stderr)
        return 2

    runner = Runner(root, args.seed, args.seconds, args.smoke)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = runner.run(WORKLOADS[name], bool(args.trace))
        result = report(run, bool(args.trace), WORKLOADS[name])
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        with open(os.path.join(root, ".bench_out", name, "result.json"), "w") as fh:
            json.dump({"fingerprint": machine, "seed": args.seed, "trace": args.trace,
                       "setup_s": run["setup_s"],
                       "ops": [vars(op) for op in run["plain"] + run["traced"]],
                       "metrics": result["metrics"]}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
