"""The per-layer metrics of BENCHMARK.json name library functions that
``bench/spans.py`` wraps, and read attributes of their results.  A refactor
that deletes or renames one of them would leave its metric silently empty
or end a traced run with an AttributeError; these tests fail instead."""

import json
import sys
from pathlib import Path

import pytest

import nonlocalwave as nlw

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import spans  # noqa: E402

SUFFIXES = (".calls", ".self_s", ".s")


def traced_names():
    """``<module>.<function>`` of every per-layer `.calls`, `.s` and
    `.self_s` metric, with the `setup.` prefix stripped."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = set()
    for metric in metrics:
        name = metric["name"]
        for suffix in SUFFIXES:
            if name.endswith(suffix):
                names.add(name[:-len(suffix)].removeprefix("setup."))
                break
    return sorted(names)


def test_contract_names_functions():
    assert "fixedpoint.apply_kernel" in traced_names()


@pytest.mark.parametrize("name", traced_names())
def test_benchmark_metric_names_a_traced_function(name):
    # `fixedpoint.solve` aggregates both engines
    wanted = spans.SOLVERS if name == "fixedpoint.solve" else (name,)
    traced = set(spans.Tracer.targets().values())
    assert [w for w in wanted if w not in traced] == []


def test_tracer_notes_read_real_results():
    rz = nlw.realize(nlw.scenario_undamped_neumann(), m=2, fs_step=0.25)
    tracer = spans.Tracer()
    notes = tracer._notes("propagator.fundamental_solution", (), rz.fs, None)
    assert notes == {"table_bytes": rz.fs.blocks.nbytes}
    notes = tracer._notes("scenarios.realize", (), rz, None)
    assert notes == {"scenario": "undamped_neumann", "m": 2, "nodes": 5}
