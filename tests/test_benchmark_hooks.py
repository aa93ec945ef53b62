"""The names that perfbench/tracer.py hooks into must keep existing.

The benchmark's summary reads a span or count that never fired as 0, so a
rename in the package would silently zero its per-layer metrics.  These
tests load the tracer by path, without installing it, and check the package
against what it reads.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from rieszmin import PowerLawKernel, UniformBoxMeasure, energy, minimizer
from rieszmin.minimizer import MinimizeSettings, _descend
from rieszmin.quantizer import partition, select_representatives

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_in_the_minimizer(tracer):
    for probe in tracer.PROBES:
        layer, name = probe.split(".")
        assert layer == "minimizer"
        assert inspect.isfunction(getattr(minimizer, name, None)), probe


def test_descend_reports_its_iteration_count_at_index_3():
    start = np.random.default_rng(3).normal(size=(6, 2))
    result = _descend(start, PowerLawKernel(1, 2, dim=2), MinimizeSettings(max_iters=25))
    assert result[3] == len(result[5]) > 0  # iterations, history


def test_greedy_improvements_is_an_int():
    cells = partition(UniformBoxMeasure([0.0, 0.0], [1.0, 1.0]), 16)
    selected = select_representatives(cells, PowerLawKernel(1, 2, dim=2), strategy="hybrid",
                                      k=4, seed=1)
    assert isinstance(selected.selection.greedy_improvements, int)


@pytest.mark.parametrize("name", ["pair_interaction_sum", "gradient_of_points",
                                  "potential_grid"])
def test_pair_passes_are_public_and_take_the_points_first(tracer, name):
    fn = getattr(energy, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == energy.__name__
    assert next(iter(inspect.signature(fn).parameters)) == "points"
    assert f"energy.{name}" in tracer.COUNTS
