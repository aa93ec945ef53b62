"""The benchmark's workloads: inputs made from a seed, and checks of each
command's outputs against the paper's identities.

Every workload runs one `rieszmin` subcommand.  `write_inputs` writes the
JSON config (and, for diagnose, the configuration CSV) for one invocation
into a directory and returns the CLI arguments; `check` reads the files the
command wrote and returns a list of failure messages (empty when the output
is correct).  Checks use tolerances, never byte comparison across commits,
so a refactor that only changes round-off still passes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

PL12 = {"variant": "power_law", "alpha": 1.0, "beta": 2.0, "dim": 2}

# minimize: best energy of PL(1,2) found by the unmodified program, and the
# slack allowed above it.  At n=200 other seeds land in nearby local minima
# within ~3e-7 of it; at the smoke size n=12 two local minima 2e-4 apart are
# both accepted.
MINIMIZE_REFERENCE = {False: (-0.4111244046, 1e-5), True: (-0.4030487251, 5e-4)}

# trace: the quantized energy at the largest n must sit this close to the
# Monte-Carlo continuum target (plus 5 of its standard errors).
TRACE_ENERGY_TOL = {False: 5e-3, True: 5e-2}

# diagnose: mean particle potential equals the discrete energy (the
# decomposition identity) up to round-off of two summation orders.
DECOMPOSITION_RTOL = 1e-9


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _result(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)["result"]


def _finite(value) -> bool:
    # reports write non-finite floats as the strings "inf", "-inf", "nan"
    return isinstance(value, (int, float)) and math.isfinite(value)


# ---------------------------------------------------------------------------
# trace-box2d
# ---------------------------------------------------------------------------


def _trace_inputs(seed: int, inv_dir: str, smoke: bool) -> List[str]:
    config = {
        "seed": seed,
        "kernel": PL12,
        "measure": {"type": "uniform_box", "lo": [0, 0], "hi": [1, 1]},
        "n_list": [16, 64] if smoke else [256, 1024, 2048],
        "trace": {"with_minimization": False, "strategy": "hybrid",
                  "k": 4 if smoke else 32,
                  "mc_samples": 20_000 if smoke else 200_000},
    }
    path = os.path.join(inv_dir, "config.json")
    _write_json(path, config)
    return ["trace", "--config", path]


def _trace_check(inv_dir: str, out_dir: str, smoke: bool) -> List[str]:
    with open(os.path.join(inv_dir, "config.json")) as fh:
        n_list = json.load(fh)["n_list"]
    result = _result(out_dir, "trace.json")
    rows = result["rows"]
    errors = []
    if [row["n"] for row in rows] != n_list:
        errors.append(f"trace rows {[row['n'] for row in rows]} != n_list {n_list}")
    for row in rows:
        for key in ("energy_quantized", "bl_distance", "diameter"):
            if not _finite(row[key]):
                errors.append(f"n={row['n']}: {key} = {row[key]!r} is not finite")
    target, stderr = result["target_energy"], result["target_std_error"]
    if not (_finite(target) and _finite(stderr)):
        errors.append(f"target energy {target!r} +- {stderr!r} is not finite")
    elif rows and _finite(rows[-1]["energy_quantized"]):
        gap = abs(rows[-1]["energy_quantized"] - target)
        tol = TRACE_ENERGY_TOL[smoke] + 5.0 * stderr
        if gap > tol:
            errors.append(f"quantized energy at n={rows[-1]['n']} is {gap:.3g} "
                          f"from the target (tolerance {tol:.3g})")
    return errors


# ---------------------------------------------------------------------------
# minimize-pl200
# ---------------------------------------------------------------------------


def _minimize_inputs(seed: int, inv_dir: str, smoke: bool) -> List[str]:
    config = {
        "seed": seed,
        "kernel": PL12,
        "n": 12 if smoke else 200,
        "dim": 2,
        "minimize": {"restarts": 2 if smoke else 4, "max_iters": 3000,
                     "grad_tol": 1e-6,
                     "init": {"kind": "random-gaussian", "scale": 1.0}},
    }
    path = os.path.join(inv_dir, "config.json")
    _write_json(path, config)
    return ["minimize", "--config", path]


def _minimize_check(inv_dir: str, out_dir: str, smoke: bool) -> List[str]:
    with open(os.path.join(inv_dir, "config.json")) as fh:
        grad_tol = json.load(fh)["minimize"]["grad_tol"]
    result = _result(out_dir, "minimize.json")
    errors = []
    if result["converged"] is not True:
        errors.append("minimizer did not converge")
    if not (_finite(result["grad_norm"]) and result["grad_norm"] <= grad_tol):
        errors.append(f"grad_norm {result['grad_norm']!r} exceeds grad_tol {grad_tol}")
    reference, slack = MINIMIZE_REFERENCE[smoke]
    limit = reference + slack
    if not (_finite(result["energy"]) and result["energy"] <= limit):
        errors.append(f"energy {result['energy']!r} above the reference bound {limit:.10f}")
    return errors


# ---------------------------------------------------------------------------
# diagnose-disks4096
# ---------------------------------------------------------------------------


def two_disks(seed: int, n: int, separation: float = 30.0) -> np.ndarray:
    """n points, half in each of two unit disks `separation` apart.

    Each disk is sampled uniformly by jittered stratification: one uniform
    point per cell of a square grid, the points inside the disk kept, then a
    random subset of n/2 of them.  Independent uniform points now and then
    leave a rim point farther than gap_factor x the median neighbour
    distance from the rest; single linkage splits it off as a singleton
    cluster, and the classifier then labels the two disks vanishing-like.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    step = math.sqrt(math.pi / (1.1 * half))  # ~10% more cells than points
    ticks = np.arange(-1.0, 1.0, step)
    grid = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)
    disks = []
    for shift in (0.0, separation):
        points = grid + step * rng.uniform(size=grid.shape)
        points = points[(points ** 2).sum(axis=1) <= 1.0]
        points = points[np.sort(rng.choice(len(points), half, replace=False))]
        disks.append(points + [shift, 0.0])
    return np.vstack(disks)


def _diagnose_inputs(seed: int, inv_dir: str, smoke: bool) -> List[str]:
    points = two_disks(seed, 256 if smoke else 4096)
    csv_path = os.path.join(inv_dir, "configuration.csv")
    with open(csv_path, "w") as fh:
        fh.write(f"{points.shape[1]},{points.shape[0]}\n")
        for row in points:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    config = {"seed": seed, "kernel": PL12, "diagnostics": {"gap_factor": 5.0}}
    path = os.path.join(inv_dir, "config.json")
    _write_json(path, config)
    return ["diagnose", "--config", path, csv_path]


def _diagnose_check(inv_dir: str, out_dir: str, smoke: bool) -> List[str]:
    result = _result(out_dir, "diagnose.json")
    errors = []
    clusters = result["clusters"]
    if clusters["classification"] != "dichotomy-like":
        errors.append(f"classified {clusters['classification']!r}, expected 'dichotomy-like'")
    heavy = [c["mass_fraction"] for c in clusters["clusters"] if c["mass_fraction"] >= 0.05]
    if len(heavy) != 2 or any(abs(m - 0.5) > 0.01 for m in heavy):
        errors.append(f"heavy cluster masses {heavy}, expected two halves")
    mean, energy = result["el"]["mean_potential"], result["energy"]["value"]
    if not (_finite(mean) and _finite(energy)
            and abs(mean - energy) <= DECOMPOSITION_RTOL * max(1.0, abs(energy))):
        errors.append(f"mean potential {mean!r} != energy {energy!r} (decomposition identity)")
    return errors


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    prediction: str   # predicted layer split, printed with every result
    write_inputs: Callable[[int, str, bool], List[str]]
    check: Callable[[str, str, bool], List[str]]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="trace-box2d",
            prediction=("quantizer.select_representatives ~90% of wall_s (10.6 s of 11.5 s "
                        "on 2 cores when defined), k batched medium pair passes in energy; "
                        "minimizer, gradient and cluster classifier absent"),
            write_inputs=_trace_inputs,
            check=_trace_check,
        ),
        Workload(
            name="minimize-pl200",
            prediction=("minimizer iterations x (~2 energy passes + 1 gradient) at n=200 "
                        "(~1,800 pair sums and ~900 gradients when defined); quantizer and "
                        "diagnostics absent; the large-n workloads should not move with a "
                        "minimizer change"),
            write_inputs=_minimize_inputs,
            check=_minimize_check,
        ),
        Workload(
            name="diagnose-disks4096",
            prediction=("el_residual ~1.05 s, cluster_classify ~1.7 s plus ~0.8 GB dense "
                        "matrices, discrete_energy ~1.0 s, support_diameter ~0.74 s "
                        "(of ~4 s on 2 cores when defined)"),
            write_inputs=_diagnose_inputs,
            check=_diagnose_check,
        ),
    )
}
