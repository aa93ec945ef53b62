import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from rieszmin import discrete_energy, energy, minimizer
from rieszmin.cli import _minimize_settings, _settings, main
from rieszmin.diagnostics import cluster_classify, gamma_trace
from rieszmin.energy import load_configuration_csv
from rieszmin.io import _sanitize, load_cloud_csv
from rieszmin.kernels import CheckScheme, PowerLawKernel
from rieszmin.quantizer import quantize


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "seed": 11,
        "kernel": {"variant": "power_law", "alpha": 1.0, "beta": 2.0, "dim": 2},
        "measure": {"type": "uniform_box", "lo": [0, 0], "hi": [1, 1]},
        "n": 25,
        "dim": 2,
        "n_list": [16, 64],
        "minimize": {"restarts": 4, "max_iters": 400},
        "trace": {"mc_samples": 20000},
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def result_payload(path):
    with open(path) as fh:
        return json.load(fh)["result"]


def svg_circles(path):
    """The <circle> count of an SVG file, which must parse as XML."""
    return len(ET.parse(path).getroot().findall("{http://www.w3.org/2000/svg}circle"))


class TestCheckKernel:
    def test_power_law_passes_with_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["check-kernel", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert (tmp_path / "out" / "assumptions.json").exists()

    def test_invalid_kernel_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kernel={"variant": "power_law", "alpha": -4.0,
                                             "beta": 2.0, "dim": 2})
        code = main(["check-kernel", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2

    def test_witness_block_populates_h4(self, tmp_path):
        cfg = write_config(
            tmp_path,
            kernel={"variant": "morse", "c1": 4.0, "c2": 1.0, "l1": 0.5, "l2": 2.0,
                    "dim": 2},
            witness={"type": "uniform_ball", "center": [0, 0], "radius": 3.0},
            check_scheme={"h4_samples": 20000},
        )
        out = tmp_path / "out"
        code = main(["check-kernel", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = result_payload(out / "assumptions.json")
        assert payload["h4_witness_energy"] < 0


class TestQuantize:
    def test_row_count_matches_n(self, tmp_path):
        cfg = write_config(tmp_path, n=100)
        out = tmp_path / "out"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        loaded = load_configuration_csv(out / "quantized.csv")
        assert loaded.n == 100

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, quantize={"strategy": "hybrid"})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["quantize", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["quantize", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "quantized.csv").read_bytes() == (out2 / "quantized.csv").read_bytes()
        assert result_payload(out1 / "quantize.json") == result_payload(out2 / "quantize.json")

    @pytest.mark.parametrize("strategy", ["conditional-mean", "hybrid"])
    def test_sidecar_scores_the_emitted_points(self, tmp_path, strategy):
        """At a non-square n every selected point is emitted, so achieved_G and the
        energy block are the emitted configuration's energy, bit for bit."""
        cfg = write_config(tmp_path, n=10, quantize={"strategy": strategy})
        out = tmp_path / "out"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        payload = result_payload(out / "quantize.json")
        kernel = PowerLawKernel(1, 2, dim=2)  # write_config's
        fresh = discrete_energy(load_configuration_csv(out / "quantized.csv"), kernel)
        assert payload["achieved_G"] == payload["energy"]["value"] == fresh.value
        assert payload["energy"] == fresh.as_dict()
        assert sorted(payload) == ["achieved_G", "bound_estimate", "energy"]

    @pytest.mark.parametrize("strategy, passes", [("conditional-mean", 1), ("hybrid", 2)])
    def test_energy_comes_from_the_selections_last_pass(self, tmp_path, strategy, passes):
        """The energy block reuses the selection's pair pass: hybrid's one for its tuple
        and one after its sweeps; none is made again for the report."""
        cfg = write_config(tmp_path, quantize={"strategy": strategy, "k": 4})
        with mock.patch.object(energy, "pair_interaction_sum",
                               wraps=energy.pair_interaction_sum) as spy:
            assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert spy.call_count == passes

    def test_no_kernel_means_no_energy(self, tmp_path):
        cfg = write_config(tmp_path, n=10)
        config = json.loads(Path(cfg).read_text())
        del config["kernel"]
        Path(cfg).write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        assert '"achieved_G": null' in (out / "quantize.json").read_text()
        payload = result_payload(out / "quantize.json")
        assert payload["achieved_G"] is None and "energy" not in payload

    def test_selection_giving_up_exits_three(self, tmp_path, capsys):
        corners = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]]
        cfg = write_config(tmp_path, n=9,
                           kernel={"variant": "power_law", "alpha": -0.5, "beta": 2, "dim": 2},
                           measure={"type": "atoms", "positions": corners, "weights": [0.2] * 5})
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "numerical failure: representative selection failed: 32 draws all ")

    def test_svg_has_one_circle_per_point(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["quantize", "--config", cfg, "--out", str(out), "--svg"]) == 0
        assert svg_circles(out / "quantized.svg") == 25

    @pytest.mark.parametrize("with_kernel", [True, False])
    def test_unknown_strategy_is_a_validation_error(self, tmp_path, capsys, with_kernel):
        """Without a kernel the strategy becomes conditional-mean, but only a known one."""
        cfg = write_config(tmp_path, quantize={"strategy": "bogus"})
        if not with_kernel:
            config = json.loads(Path(cfg).read_text())
            del config["kernel"]
            Path(cfg).write_text(json.dumps(config))
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1 and "bogus" in err
        assert not (tmp_path / "out" / "quantized.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["quantize", "--config", cfg, "--out", str(out1), "--seed", "5"])
        main(["quantize", "--config", cfg, "--out", str(out2), "--seed", "6"])
        assert (out1 / "quantized.csv").read_text() != (out2 / "quantized.csv").read_text()


class TestMinimize:
    def test_pair_energy_in_json(self, tmp_path):
        cfg = write_config(tmp_path, n=2, minimize={"restarts": 8})
        out = tmp_path / "out"
        assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
        payload = result_payload(out / "minimize.json")
        assert abs(payload["energy"] - (-0.25)) < 1e-9

    def test_all_restarts_failing_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=5)
        with mock.patch.object(minimizer, "_descend", lambda *args: None):
            assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "all 4 restarts" in err

    def test_invalid_kernel_parameters_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, kernel={"variant": "morse", "c1": -1.0, "c2": 1.0,
                                             "l1": 1.0, "l2": 1.0, "dim": 2})
        assert main(["minimize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_history_length_bounded_by_max_iters(self, tmp_path):
        cfg = write_config(tmp_path, n=6, minimize={"restarts": 2, "max_iters": 50})
        out = tmp_path / "out"
        assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert len(lines) - 1 <= 50  # at most one row per iteration

    def test_svg_written_only_for_2d_with_flag(self, tmp_path):
        cfg = write_config(tmp_path, n=4)
        out1 = tmp_path / "plain"
        main(["minimize", "--config", cfg, "--out", str(out1)])
        assert not (out1 / "minimized.svg").exists()
        out2 = tmp_path / "svg"
        main(["minimize", "--config", cfg, "--out", str(out2), "--svg"])
        assert (out2 / "minimized.svg").exists()
        cfg1 = write_config(tmp_path, name="c1.json",
                            kernel={"variant": "power_law", "alpha": 1.0, "beta": 2.0,
                                    "dim": 1},
                            dim=1, n=4)
        out3 = tmp_path / "svg1d"
        main(["minimize", "--config", cfg1, "--out", str(out3), "--svg"])
        assert not (out3 / "minimized.svg").exists()


class TestTrace:
    def test_csv_has_one_row_per_n(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert lines[0].startswith("n,energy_quantized")

    def test_empty_n_list_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, n_list=[])
        assert main(["trace", "--config", cfg, "--out", str(tmp_path / "out")]) == 1

    def test_svg_emitted_for_2d_with_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--out", str(out), "--svg"]) == 0
        assert (out / "trace.svg").exists()

    def test_svg_with_minimization_has_both_series(self, tmp_path):
        cfg = write_config(tmp_path, n_list=[4, 9],
                           trace={"mc_samples": 2000, "k": 4, "with_minimization": True})
        out = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--out", str(out), "--svg"]) == 0
        assert svg_circles(out / "trace.svg") == 4  # two rows of two series

    def test_every_csv_ends_its_lines_in_lf(self, tmp_path):
        cfg = write_config(tmp_path, n=4, minimize={"restarts": 1, "max_iters": 20})
        out = tmp_path / "out"
        assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        for name in ("minimized.csv", "history.csv", "trace.csv"):
            text = (out / name).read_bytes()
            assert b"\r" not in text and text.endswith(b"\n"), name

    def test_svg_leaves_an_infinite_energy_out(self, tmp_path):
        """Coincident atoms make the n=9 quantized energy of a singular kernel
        +inf; the chart's y-range and line take the finite rows only."""
        cfg = write_config(
            tmp_path, n_list=[4, 9], trace={"strategy": "conditional-mean", "mc_samples": 2000},
            kernel={"variant": "power_law", "alpha": -0.5, "beta": 2.0, "dim": 2},
            measure={"type": "atoms", "positions": [[0, 0], [0, 0], [1, 1], [1, 1], [0.3, 0.7]],
                     "weights": [0.2] * 5})
        out = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--out", str(out), "--svg"]) == 0
        assert (out / "trace.csv").read_text().splitlines()[2].startswith("9,inf,")
        svg = (out / "trace.svg").read_text()
        assert "nan" not in svg and svg.count("<circle") == 1


class TestDiagnose:
    def test_optimal_pair_spread(self, tmp_path):
        cfg = write_config(tmp_path, n=2, minimize={"restarts": 8})
        out = tmp_path / "out"
        main(["minimize", "--config", cfg, "--out", str(out)])
        code = main(["diagnose", "--config", cfg, str(out / "minimized.csv"),
                     "--out", str(out)])
        assert code == 0
        payload = result_payload(out / "diagnose.json")
        assert payload["el"]["potential_spread"] <= 1e-12

    def test_two_cluster_file_is_dichotomy(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.uniform(-0.01, 0.01, size=(60, 2))
        b = rng.uniform(-0.01, 0.01, size=(40, 2)) + [30.0, 0.0]
        pts = np.vstack([a, b])
        lines = ["2,100"] + [f"{x:.17g},{y:.17g}" for x, y in pts]
        path = tmp_path / "two.csv"
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, str(path), "--out", str(out)]) == 0
        payload = result_payload(out / "diagnose.json")
        assert payload["clusters"]["classification"] == "dichotomy-like"

    def test_svg_has_one_circle_per_point(self, tmp_path):
        cfg = write_config(tmp_path)
        csv = tmp_path / "cfg.csv"
        csv.write_text("2,6\n0,0\n0.1,0\n0,0.1\n5,5\n5.1,5\n5,5.1\n")
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, str(csv), "--out", str(out), "--svg"]) == 0
        root = ET.parse(out / "diagnose.svg").getroot()
        fills = [c.get("fill") for c in root.findall("{http://www.w3.org/2000/svg}circle")]
        assert len(fills) == 6 and len(set(fills)) == 2  # one colour per cluster

    def test_diagnose_loads_no_scipy(self, tmp_path):
        """scipy is only for tabulated kernels; a power-law diagnose runs without it."""
        path = tmp_path / "pts.csv"
        path.write_text("2,3\n0,0\n1,0\n5,5\n")
        cfg = write_config(tmp_path)
        script = ("import sys; from rieszmin.cli import main; "
                  f"code = main(['diagnose', '--config', {cfg!r}, {str(path)!r}, "
                  f"'--out', {str(tmp_path / 'out')!r}]); "
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # this run's rieszmin
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("2,2\n0.0,0.0\nnot,numbers\n")
        cfg = write_config(tmp_path)
        code = main(["diagnose", "--config", cfg, str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad.csv:3" in capsys.readouterr().err

    def test_one_kernel_pass_over_the_pairs(self, tmp_path, monkeypatch):
        """The kernel sees the entries of one pair pass's upper-triangle
        tiles (the skipped i == j included) and 96 probes against each
        point, nothing more: the energy and diameter come from the particle
        potentials' pass."""
        n = 300  # two tile rows: the tiles 256 x 256, 256 x 44 and 44 x 44
        pts = np.random.default_rng(4).normal(size=(n, 2))
        path = tmp_path / "cloud.csv"
        path.write_text("\n".join([f"2,{n}"] + [f"{x:.17g},{y:.17g}" for x, y in pts]) + "\n")
        evaluated = []

        class Counting(PowerLawKernel):
            def radial(self, r, out=None):
                evaluated.append(np.size(r))
                return super().radial(r, out)

        monkeypatch.setattr("rieszmin.cli.kernel_from_config",
                            lambda block, base_dir: Counting(1, 2, dim=2))
        cfg = write_config(tmp_path)
        assert main(["diagnose", "--config", cfg, str(path), "--out", str(tmp_path / "o")]) == 0
        assert sum(evaluated) == 256 * 256 + 256 * 44 + 44 * 44 + 96 * n  # 107,536

    def test_infinite_potentials_leave_stderr_empty(self, tmp_path):
        """Every point has a coincident partner under a singular kernel, so
        every particle potential is +inf and their spread is nan, quietly."""
        pts = np.repeat(np.random.default_rng(5).normal(size=(20, 2)), 2, axis=0)
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(["2,40"] + [f"{x:.17g},{y:.17g}" for x, y in pts]) + "\n")
        cfg = write_config(tmp_path, kernel={"variant": "power_law", "alpha": -0.5,
                                             "beta": 2.0, "dim": 2})
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # this run's rieszmin
        proc = subprocess.run([sys.executable, "-m", "rieszmin.cli", "diagnose", "--config", cfg,
                               str(path), "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        el = result_payload(tmp_path / "out" / "diagnose.json")["el"]
        assert (el["mean_potential"], el["potential_spread"]) == ("inf", "nan")


class TestUserInit:
    def test_minimize_from_user_start(self, tmp_path):
        from rieszmin.energy import Configuration, save_configuration_csv

        save_configuration_csv(Configuration([[0.0, 0.0], [2.0, 0.0]]),
                               tmp_path / "start.csv")
        cfg = write_config(tmp_path, n=2,
                           minimize={"restarts": 3,
                                     "init": {"kind": "user", "path": "start.csv"}})
        out = tmp_path / "out"
        assert main(["minimize", "--config", cfg, "--out", str(out)]) == 0
        payload = result_payload(out / "minimize.json")
        assert abs(payload["energy"] - (-0.25)) < 1e-9


class TestTraceDeterminism:
    def test_trace_payload_byte_stable(self, tmp_path):
        cfg = write_config(tmp_path, n_list=[9, 16])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["trace", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["trace", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert result_payload(out1 / "trace.json") == result_payload(out2 / "trace.json")


class TestReportSchema:
    """The exact key sets of the result payloads, so a report keeps its schema."""

    def test_assumptions_keys(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["check-kernel", "--config", cfg, "--out", str(out)]) == 0
        payload = result_payload(out / "assumptions.json")
        assert set(payload) == {
            "h1_lower_bound", "h1_lower_bound_finite", "h1_local_integrability",
            "h1_integral_abs", "h2_liminf_at_infinity", "h2_pass",
            "h3_monotone_near_origin", "h4_witness_energy", "h4_std_error", "h4_pass",
            "passed", "scheme"}
        assert set(payload["scheme"]) == {"radial_samples", "r_min", "r_max", "far_radii",
                                          "h2_tolerance", "h3_pairs", "h4_samples", "seed"}
        assert payload["scheme"]["far_radii"] == [2.0 ** k for k in range(13)]

    def test_trace_keys(self, tmp_path):
        cfg = write_config(tmp_path, n_list=[9])
        out = tmp_path / "out"
        assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
        payload = result_payload(out / "trace.json")
        assert set(payload) == {"target_energy", "target_std_error", "ell_p_estimate", "rows"}
        assert [set(row) for row in payload["rows"]] == [
            {"n", "energy_quantized", "energy_minimized", "bl_distance", "diameter"}]

    def test_quantize_energy_keys(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        energy = result_payload(out / "quantize.json")["energy"]
        assert set(energy) == {"value", "pair_count", "min_pair_distance"}

    def test_diagnose_probe_scheme(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("2,2\n0.0,0.0\n1.0,0.0\n")
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, str(path), "--out", str(out)]) == 0
        assert result_payload(out / "diagnose.json")["el"]["probe_scheme"] == (
            "32 probes per sphere at [1.5, 2.0, 4.0] x configuration radius, seed 11")


class TestParsing:
    def test_missing_config_file(self, capsys):
        assert main(["quantize", "--config", "/does/not/exist.json"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["explode", "--config", "x.json"]) == 1

    def test_cloud_measure_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(400, 2))
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("\n".join(f"{x:.17g},{y:.17g}" for x, y in pts) + "\n")
        cfg = write_config(tmp_path, measure={"type": "cloud", "path": "cloud.csv",
                                              "dim": 2}, n=16)
        out = tmp_path / "out"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        assert load_configuration_csv(out / "quantized.csv").n == 16

    def test_cloud_trailing_weight_column_is_normalized(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("0,0,1\n1,0,3\n")
        points, weights = load_cloud_csv(cloud, dim=2)
        assert points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert weights.tolist() == [0.25, 0.75]
        points, weights = load_cloud_csv(cloud)  # no declared dimension: three coordinates
        assert points.shape == (2, 3) and weights is None

    def test_report_values_become_json_safe(self):
        out = _sanitize({"a": np.array([1.5, math.nan]),
                         "b": (-math.inf, np.int64(3), np.bool_(True), np.float32(0.5))})
        assert out == {"a": [1.5, "nan"], "b": ["-inf", 3, True, 0.5]}
        assert [type(v) for v in out["b"][1:]] == [int, bool, float]

    def test_density_measure_from_expression(self, tmp_path):
        cfg = write_config(
            tmp_path,
            measure={"type": "density", "expr": "np.exp(-8*((x0-0.5)**2+(x1-0.5)**2))",
                     "lo": [0, 0], "hi": [1, 1], "normalize": True,
                     "cells_per_axis": 64},
            n=9,
        )
        out = tmp_path / "out"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        loaded = load_configuration_csv(out / "quantized.csv")
        # representatives concentrate near the gaussian bump center
        assert np.linalg.norm(loaded.points.mean(axis=0) - [0.5, 0.5]) < 0.1

    # syntax outside the whitelist, or arithmetic that fails when evaluated
    @pytest.mark.parametrize("expr", ["np.__builtins__['len']([1, 2, 3])",
                                      "__import__('os')", "().__class__",
                                      "np.load(x0)", "np.exp(x0, out=x0)", "x2 + 1",
                                      "x0 * 10**400", "1/0"])
    def test_density_expression_outside_whitelist_exits_two(self, tmp_path, expr):
        cfg = write_config(tmp_path, measure={"type": "density", "expr": expr,
                                              "lo": [0, 0], "hi": [1, 1],
                                              "normalize": True}, n=9)
        assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command, block, key", [
        ("check-kernel", {"check_scheme": {"bogus": 1}}, "bogus"),
        ("quantize", {"measure": {"type": "uniform_box"}}, "lo"),
        ("minimize", {"kernel": {"variant": "morse", "c1": 4.0}}, "c2"),
        ("check-kernel", {"kernel": {"variant": "power_law", "alpha": "abc", "beta": 2.0}},
         "alpha"),
        ("quantize", {"n": "ten"}, "n"),
        ("minimize", {"n": "ten"}, "n"),
        ("minimize", {"minimize": {"init": {"kind": "user"}}}, "path"),
        ("trace", {"n_list": ["ten"]}, "n_list"),
        ("quantize", {"measure": {"type": "uniform_box", "lo": ["a", 0], "hi": [1, 1]}}, "lo"),
        ("quantize", {"measure": {"type": "uniform_box", "lo": [0, 0], "hi": [1, None]}}, "hi"),
        ("quantize", {"measure": {"type": "uniform_ball", "center": ["a", 0], "radius": 1}},
         "center"),
        ("quantize", {"measure": {"type": "uniform_ball", "center": [0, 0], "radius": "big"}},
         "radius"),
        ("quantize", {"measure": {"type": "atoms", "positions": [[0, 0], ["x", 1]],
                                  "weights": [0.5, 0.5]}}, "positions"),
        ("quantize", {"measure": {"type": "atoms", "positions": [[0, 0], [1, 1]],
                                  "weights": ["half", 0.5]}}, "weights"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": ["a", 0],
                                  "hi": [1, 1]}}, "lo"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": [0, 0],
                                  "hi": [1, {}]}}, "hi"),
        ("check-kernel", {"kernel": {"variant": "tabulated", "radii": [0, "one"],
                                     "values": [1, 0], "dim": 2}}, "radii"),
        ("check-kernel", {"kernel": {"variant": "tabulated", "radii": [0, 1],
                                     "values": ["abc", 0], "dim": 2}}, "values"),
        ("check-kernel", {"kernel": {"variant": "power_law", "alpha": 1.0, "beta": 2.0,
                                     "near_origin_radius": "abc"}}, "near_origin_radius"),
        ("quantize", {"measure": {"type": "uniform_ball", "center": [0, 0], "radius": 1,
                                  "cells_per_axis": "many"}}, "cells_per_axis"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": [0, 0],
                                  "hi": [1, 1], "cells_per_axis": "many"}}, "cells_per_axis"),
        ("minimize", {"minimize": {"repair": {}}}, "repair"),
        ("quantize", {"measure": {"type": "cloud", "path": "cloud.csv", "dim": "two"}}, "dim"),
        ("check-kernel", {"check_scheme": {"radial_samples": "abc"}}, "radial_samples"),
        # a fraction for an integer key, which int() would truncate
        ("quantize", {"n": 10.7}, "n"),
        ("minimize", {"minimize": {"restarts": 2.5}}, "restarts"),
        ("quantize", {"quantize": {"k": 2.9}}, "k"),
        ("trace", {"n_list": [16, 64.5]}, "n_list"),
        ("quantize", {"measure": {"type": "uniform_ball", "center": [0, 0], "radius": 1,
                                  "cells_per_axis": 12.5}}, "cells_per_axis"),
        # a key no settings block knows, or the seed that only the top level sets
        ("minimize", {"minimize": {"restart": 1}}, "restart"),
        ("minimize", {"minimize": {"step": {"shrink": 0.5}}}, "step"),
        ("minimize", {"minimize": {"repair_period": 50}}, "repair_period"),
        ("minimize", {"minimize": {"seed": 3}}, "seed"),
        ("quantize", {"quantize": {"stratgy": "hybrid"}}, "stratgy"),
        ("trace", {"trace": {"mc_sample": 100}}, "mc_sample"),
        ("diagnose", {"diagnostics": {"gap": 2.0}}, "gap"),
        # a bool setting takes only JSON true or false
        ("trace", {"trace": {"with_minimization": "false"}}, "with_minimization"),
        ("trace", {"trace": {"with_minimization": 1}}, "with_minimization"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": [0, 0],
                                  "hi": [1, 1], "normalize": "yes"}}, "normalize"),
        ("minimize", {"minimize": {"init": "gaussian"}}, "minimize.init"),
        # a check scheme value out of range
        ("check-kernel", {"check_scheme": {"radial_samples": 0}}, "radial_samples"),
        ("check-kernel", {"check_scheme": {"h3_pairs": -2}}, "h3_pairs"),
        ("check-kernel", {"check_scheme": {"h4_samples": 0}}, "h4_samples"),
        ("check-kernel", {"check_scheme": {"far_radii": []}}, "far_radii"),
        ("check-kernel", {"check_scheme": {"r_min": 0}}, "r_min"),
        ("check-kernel", {"check_scheme": {"r_min": 2.0, "r_max": 1.0}}, "r_max"),
        # an init block takes 'kind' and the one key its kind reads
        ("minimize", {"minimize": {"init": {"sclae": 2}}}, "sclae"),
        ("minimize", {"minimize": {"init": {"kind": "quantizer-seeded", "scale": 2,
                                            "measure": {"type": "uniform_box", "lo": [0, 0],
                                                        "hi": [1, 1]}}}}, "scale"),
        # the repair switch is a bool: a block or null is the wrong type
        ("minimize", {"minimize": {"repair": None}}, "repair"),
        # a JSON boolean for a number, which int() and float() would read as 1 or 0
        ("quantize", {"n": True}, "n"),
        ("check-kernel", {"kernel": {"variant": "power_law", "alpha": True, "beta": 2.0}},
         "alpha"),
        ("quantize", {"measure": {"type": "uniform_box", "lo": [True, 0], "hi": [1, 1]}}, "lo"),
        ("trace", {"n_list": [16, True]}, "n_list"),
        ("quantize", {"seed": True}, "seed"),
        ("quantize", {"quantize": {"k": True}}, "k"),
        ("check-kernel", {"kernel": {"variant": "power_law", "alpha": 1.0, "beta": 2.0,
                                     "dim": True}}, "dim"),
        ("check-kernel", {"check_scheme": {"far_radii": [1.0, False]}}, "far_radii"),
        # a JSON string for a number, which int() and float() would parse
        ("quantize", {"n": "25"}, "n"),
        ("check-kernel", {"kernel": {"variant": "power_law", "alpha": "nan", "beta": 2.0}},
         "alpha"),
        ("quantize", {"measure": {"type": "uniform_box", "lo": ["0", 0], "hi": [1, 1]}}, "lo"),
        ("quantize", {"seed": "11"}, "seed"),
        # a grid of cells needs at least one cell per axis
        ("quantize", {"measure": {"type": "uniform_ball", "center": [0, 0], "radius": 1,
                                  "cells_per_axis": 0}}, "cells_per_axis"),
        ("quantize", {"measure": {"type": "uniform_ball", "center": [0, 0], "radius": 1,
                                  "cells_per_axis": -1}}, "cells_per_axis"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": [0, 0], "hi": [1, 1],
                                  "cells_per_axis": 0}}, "cells_per_axis"),
    ])
    def test_config_key_mistake_is_one_error_line(self, tmp_path, capsys, command, block, key):
        (tmp_path / "cloud.csv").write_text("0,0\n1,1\n")  # for the cloud case
        (tmp_path / "pair.csv").write_text("2,2\n0,0\n1,0\n")  # for the diagnose case
        cfg = write_config(tmp_path, **block)
        args = [str(tmp_path / "pair.csv")] if command == "diagnose" else []
        assert main([command, "--config", cfg, *args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err


class TestInputFiles:
    """A missing, empty or malformed input file is one error: line naming it, exit 1."""

    @pytest.mark.parametrize("command, overrides, args, name", [
        ("diagnose", {}, ["missing.csv"], "missing.csv"),
        ("diagnose", {"configuration": "missing.csv"}, [], "missing.csv"),
        ("check-kernel", {"kernel": {"variant": "tabulated", "path": "missing.csv"}}, [],
         "missing.csv"),
        ("minimize", {"minimize": {"init": {"kind": "user", "path": "missing.csv"}}}, [],
         "missing.csv"),
        ("quantize", {"measure": {"type": "cloud", "path": "missing.csv"}}, [], "missing.csv"),
        ("check-kernel", {"kernel": {"variant": "tabulated", "path": "bad.csv"}}, [], "bad.csv:3"),
        ("check-kernel", {"kernel": {"variant": "tabulated", "path": "empty.csv"}}, [],
         "empty.csv"),
        ("quantize", {"measure": {"type": "cloud", "path": "bad.csv"}}, [], "bad.csv:3"),
        ("diagnose", {}, ["bad.csv"], "bad.csv:3"),
        ("diagnose", {}, ["empty.csv"], "empty.csv"),
        ("check-kernel", {"kernel": {"variant": "tabulated", "path": "binary.csv"}}, [],
         "binary.csv"),
    ])
    def test_input_file_error_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                command, overrides, args, name):
        (tmp_path / "bad.csv").write_text("# radius,value\n0,1\n1,abc\n")
        (tmp_path / "empty.csv").write_text("# nothing here\n\n")
        (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00\x01,2\n")
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg, *args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("command, overrides, key", [
        ("check-kernel", {"kernel": {"variant": "tabulated", "path": 3}}, "path"),
        ("quantize", {"measure": {"type": "cloud", "path": 3}}, "path"),
        ("minimize", {"minimize": {"init": {"kind": "user", "path": 3}}}, "path"),
        ("diagnose", {"configuration": 3}, "configuration"),
    ])
    def test_path_that_is_not_a_string_is_one_error_line(self, tmp_path, capsys,
                                                         command, overrides, key):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err

    def test_binary_config_file_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["check-kernel", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(cfg) in err

    def test_configuration_key_is_relative_to_the_config(self, tmp_path, monkeypatch):
        run = tmp_path / "run"
        run.mkdir()
        (run / "pair.csv").write_text("2,2\n0,0\n1,0\n")
        cfg = write_config(run, configuration="pair.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert result_payload(tmp_path / "out" / "diagnose.json")["support_diameter"] == 1.0

    def test_out_that_is_not_a_string_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, out=3)
        monkeypatch.chdir(tmp_path)
        assert main(["check-kernel", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'out'" in err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_out_that_cannot_be_made_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                      out, where):
        """An output directory that is a file, or lies under one, is an error: line."""
        (tmp_path / "afile").write_text("not a directory\n")
        cfg = write_config(tmp_path, **({"out": out} if where == "config" else {}))
        monkeypatch.chdir(tmp_path)
        args = ["--out", out] if where == "flag" else []
        assert main(["check-kernel", "--config", cfg, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and out in err

    def test_out_key_is_relative_to_the_config(self, tmp_path, monkeypatch):
        run = tmp_path / "run"
        run.mkdir()
        cfg = write_config(run, out="res")
        monkeypatch.chdir(tmp_path)
        assert main(["check-kernel", "--config", cfg]) == 0
        assert (run / "res" / "assumptions.json").exists()
        assert not (tmp_path / "res").exists()


class TestOutOfRange:
    @pytest.mark.parametrize("command, overrides, text", [
        ("quantize", {"quantize": {"k": 0}}, "k >= 1"),
        ("trace", {"trace": {"k": -1}}, "k >= 1"),
        ("minimize", {"minimize": {"init": {"scale": 0}}}, "init scale"),
        ("minimize", {"minimize": {"init": {"scale": -1.5}}}, "init scale"),
        ("minimize", {"minimize": {"grad_tol": float("nan")}}, "grad_tol"),
        ("minimize", {"minimize": {"grad_tol": float("inf")}}, "grad_tol"),
        ("diagnose", {"diagnostics": {"gap_factor": float("nan")}}, "gap_factor"),
        ("diagnose", {"diagnostics": {"gap_factor": float("inf")}}, "gap_factor"),
        # a measure's points of the wrong shape
        ("quantize", {"measure": {"type": "uniform_ball", "center": [[0, 0]], "radius": 1}},
         "ball center"),
        ("quantize", {"measure": {"type": "atoms", "positions": [[0, 0], [1]],
                                  "weights": [0.5, 0.5]}}, "atom positions"),
        ("quantize", {"measure": {"type": "uniform_box", "lo": [[0, 0], [1]], "hi": [1, 1]}},
         "box corners"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": [[0, 0], [1]],
                                  "hi": [1, 1]}}, "box corners"),
        # one cell, which needs no draws, still needs k >= 1
        ("quantize", {"n": 1, "quantize": {"strategy": "hybrid", "k": 0}}, "k >= 1"),
        # the deleted best-of-k strategy is an unknown one
        ("quantize", {"quantize": {"strategy": "best-of-k"}}, "unknown strategy 'best-of-k'"),
        ("trace", {"trace": {"strategy": "best-of-k"}}, "unknown strategy 'best-of-k'"),
        # atoms without coordinates, and density corners empty or 2-d
        ("quantize", {"measure": {"type": "atoms", "positions": [[], []],
                                  "weights": [0.5, 0.5]}}, "atom positions"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": [], "hi": []}},
         "box corners"),
        ("quantize", {"measure": {"type": "density", "expr": "1", "lo": [[0, 0], [0, 0]],
                                  "hi": [[1, 1], [1, 1]]}}, "box corners"),
    ])
    def test_out_of_range_value_is_a_validation_error(self, tmp_path, capsys,
                                                      command, overrides, text):
        (tmp_path / "pair.csv").write_text("2,2\n0,0\n1,0\n")  # for the diagnose cases
        cfg = write_config(tmp_path, **overrides)
        args = [str(tmp_path / "pair.csv")] if command == "diagnose" else []
        assert main([command, "--config", cfg, *args, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1 and text in err


class TestNullInitBlock:
    """A null 'minimize.init' block reads as an empty one, as every other
    settings block does."""

    @pytest.mark.parametrize("command, name", [("minimize", "minimize.json"),
                                               ("trace", "trace.json")])
    def test_null_init_matches_absent_init(self, tmp_path, command, name):
        runs = {}
        for label, block in [("absent", {}), ("null", {"init": None})]:
            cfg = write_config(tmp_path, name=f"{label}.json", n=9, n_list=[9],
                               minimize={"restarts": 1, "max_iters": 20, **block},
                               trace={"with_minimization": True, "mc_samples": 2000})
            assert main([command, "--config", cfg, "--out", str(tmp_path / label)]) == 0
            runs[label] = result_payload(tmp_path / label / name)
        assert runs["null"] == runs["absent"]


class TestReadmeConfig:
    """The README's config carrying every block passes the settings reader, so
    the README cannot keep a key the reader rejects."""

    def test_every_settings_block_reads(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        config = json.loads(text.split("A config carrying every block:")[1]
                            .split("```json")[1].split("```")[0])
        settings = _minimize_settings(config, seed=0)
        assert settings.restarts == config["minimize"]["restarts"]
        assert settings.repair is config["minimize"]["repair"] is True
        for key, of, names in [
            ("check_scheme", CheckScheme, ()),
            ("quantize", quantize, ("strategy", "k")),
            ("trace", gamma_trace, ("with_minimization", "strategy", "k", "mc_samples")),
            ("diagnostics", cluster_classify, ("gap_factor",)),
        ]:
            assert _settings(config[key], key, of, names) == config[key]


class TestReadmeQuickStart:
    def test_quick_start_runs_as_written(self):
        """The README's library quick start runs as written and prints what its comments
        say, so a renamed function or result field cannot leave the README broken."""
        text = (Path(__file__).parents[1] / "README.md").read_text()
        code = text.split("## Library quick start")[1].split("```python")[1].split("```")[0]
        scope = {}
        exec(compile(code, "README.md", "exec"), scope)
        assert abs(scope["result"].energy + 0.25) <= 1e-9
        assert scope["q"].config.n == 100


class TestSeed:
    @pytest.mark.parametrize("command", ["quantize", "minimize", "trace", "diagnose"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, command, where):
        """numpy takes only non-negative seeds; a negative one is refused up front."""
        (tmp_path / "pair.csv").write_text("2,2\n0,0\n1,0\n")  # for the diagnose case
        cfg = write_config(tmp_path, **({"seed": -1} if where == "config" else {}))
        args = [str(tmp_path / "pair.csv")] if command == "diagnose" else []
        if where == "flag":
            args += ["--seed", "-1"]
        assert main([command, "--config", cfg, *args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err


class TestThreads:
    def test_threads_below_one_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["quantize", "--config", cfg, "--threads", "0",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--threads" in err

    # n = 300 and 400 points make every pair pass span more than one block
    @pytest.mark.parametrize("command, files, measure", [
        ("quantize", ["quantized.csv", "quantize.json"], "uniform_box"),
        ("quantize", ["quantized.csv", "quantize.json"], "uniform_ball"),
        ("minimize", ["minimized.csv", "history.csv", "minimize.json"], "uniform_box"),
        ("trace", ["trace.csv", "trace.json"], "uniform_box"),
        ("diagnose", ["diagnose.json"], "uniform_box"),
    ])
    def test_outputs_do_not_depend_on_threads(self, tmp_path, command, files, measure):
        measures = {"uniform_box": {"type": "uniform_box", "lo": [0, 0], "hi": [1, 1]},
                    "uniform_ball": {"type": "uniform_ball", "center": [0, 0], "radius": 1}}
        cfg = write_config(tmp_path, n=300, n_list=[300], measure=measures[measure],
                           quantize={"k": 4, "strategy": "hybrid"},
                           minimize={"restarts": 1, "max_iters": 20},
                           trace={"k": 4, "mc_samples": 20000})
        args = [command, "--config", cfg]
        if command == "diagnose":
            pts = np.random.default_rng(2).normal(size=(400, 2))
            path = tmp_path / "cloud.csv"
            path.write_text("\n".join(["2,400"] + [f"{x:.17g},{y:.17g}" for x, y in pts]) + "\n")
            args.append(str(path))
        one, two = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(one), "--threads", "1"]) == 0
        assert main(args + ["--out", str(two), "--threads", "2"]) == 0
        for name in files:
            if name.endswith(".json"):
                assert result_payload(one / name) == result_payload(two / name)
            else:
                assert (one / name).read_bytes() == (two / name).read_bytes()
