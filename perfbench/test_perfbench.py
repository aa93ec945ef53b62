"""Tests of the benchmark itself, on the tiny smoke sizes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def write_result(out_dir, name, result):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"result": result, "meta": {}}, fh)


def test_smoke_run_reports_every_end_to_end_metric():
    code, lines = bench("--workload", "all", "--smoke", "--trace", "0")
    assert code == 0
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == len(WORKLOADS)
    for name in WORKLOADS:
        for metric, unit in run.END_TO_END.items():
            entry = last["metrics"][f"{name}.{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0
    assert sum("fail_frac" in line for line in lines) == len(WORKLOADS)


def test_smoke_trace_reports_every_layer_metric_and_is_deterministic():
    code, lines = bench("--workload", "minimize-pl200", "--smoke", "--trace", "1")
    assert code == 0
    last = json.loads(lines[-1])
    # the traced run's result payloads matched the plain run's
    assert last["correct"] is True and last["attempted"] == 2
    assert set(last["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["minimizer.iterations"] > 0
    assert metrics["energy.gradient_of_points.calls"] >= metrics["minimizer.iterations"]
    assert metrics["quantizer.select_representatives.self_s"] == 0
    assert 0 < metrics["trace.span_coverage"] <= 100


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    code, lines = bench("--workload", "trace-box2d", "--seconds", "1", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_minimize_check_rejects_unconverged_or_high_energy(tmp_path):
    workload = WORKLOADS["minimize-pl200"]
    inv = str(tmp_path)
    workload.write_inputs(3, inv, True)
    good = {"converged": True, "grad_norm": 5e-7, "energy": -0.40304872}
    write_result(os.path.join(inv, "out"), "minimize.json", good)
    assert workload.check(inv, os.path.join(inv, "out"), True) == []
    for bad in ({"converged": False}, {"grad_norm": 1e-3}, {"energy": -0.39}, {"energy": "nan"}):
        write_result(os.path.join(inv, "out"), "minimize.json", {**good, **bad})
        assert workload.check(inv, os.path.join(inv, "out"), True)


def test_trace_check_rejects_missing_rows_and_far_energies(tmp_path):
    workload = WORKLOADS["trace-box2d"]
    inv = str(tmp_path)
    workload.write_inputs(3, inv, True)
    rows = [{"n": n, "energy_quantized": -0.36, "bl_distance": 0.1, "diameter": 1.2}
            for n in (16, 64)]
    good = {"target_energy": -0.37, "target_std_error": 1e-3, "rows": rows}
    write_result(os.path.join(inv, "out"), "trace.json", good)
    assert workload.check(inv, os.path.join(inv, "out"), True) == []
    for bad in ({"rows": rows[:1]}, {"target_energy": -0.5},
                {"rows": [rows[0], {**rows[1], "bl_distance": "inf"}]}):
        write_result(os.path.join(inv, "out"), "trace.json", {**good, **bad})
        assert workload.check(inv, os.path.join(inv, "out"), True)


@pytest.mark.parametrize("change", [
    {"classification": "compactness"},
    {"clusters": [{"mass_fraction": 0.7}, {"mass_fraction": 0.3}]},
    {"mean_potential": 12.5 + 1e-6},
])
def test_diagnose_check_rejects_wrong_labels_and_broken_identity(tmp_path, change):
    workload = WORKLOADS["diagnose-disks4096"]
    inv = str(tmp_path)
    clusters = {"classification": "dichotomy-like",
                "clusters": [{"mass_fraction": 0.5}, {"mass_fraction": 0.5}]}
    el = {"mean_potential": 12.5}
    clusters.update({k: v for k, v in change.items() if k in clusters})
    el.update({k: v for k, v in change.items() if k in el})
    write_result(inv, "diagnose.json", {"clusters": clusters, "el": el,
                                        "energy": {"value": 12.5}})
    assert workload.check(inv, inv, True)


@pytest.mark.xfail(strict=True, reason=(
    "known classifier defect: a rim point farther than gap_factor x the median "
    "neighbour distance becomes a singleton cluster, whose small gap fails the "
    "dichotomy test; the diagnose workload samples its disks by jittered "
    "stratification until this is fixed"))
def test_iid_uniform_disks_are_dichotomy_like():
    from rieszmin.diagnostics import cluster_classify
    from rieszmin.energy import Configuration

    # seed 267 at n=512: one rim point of the first disk is split off
    rng = np.random.default_rng(267)
    disks = []
    for shift in (0.0, 30.0):
        radius, angle = np.sqrt(rng.uniform(size=256)), rng.uniform(0, 2 * np.pi, size=256)
        disks.append(np.stack([radius * np.cos(angle) + shift, radius * np.sin(angle)], axis=1))
    report = cluster_classify(Configuration(np.vstack(disks)), 5.0)
    assert report.classification == "dichotomy-like"
