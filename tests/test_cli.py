import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonlocalwave as nlw
from nonlocalwave import cli


def run(tmp_path, name, **kw):
    out = tmp_path / name
    rc = cli.run(cli.RunConfig(out=str(out), **kw))
    manifest = json.loads((out / "manifest.json").read_text())
    return rc, out, manifest


def test_parse_args_round_trip():
    cfg = cli.parse_args(["solve", "--scenario", "population", "--m", "8",
                          "--h", "0.001", "--seed", "3", "--dump-fs",
                          "--out", "somewhere"])
    assert cfg.command == "solve" and cfg.scenario == "population"
    assert cfg.m == "8" and cfg.h == 0.001 and cfg.seed == 3
    assert cfg.dump_fs and cfg.out == "somewhere"


def test_solve_default_scenario(tmp_path):
    rc, out, manifest = run(tmp_path, "solve", command="solve",
                            scenario="undamped_neumann")
    assert rc == 0 and manifest["exit_code"] == 0
    assert manifest["report"]["residual_ic_u"] < 1e-5
    assert manifest["report"]["residual_ic_v"] < 1e-5
    assert (out / "solution.csv").exists() and (out / "report.json").exists()
    header = (out / "solution.csv").read_text().splitlines()
    assert any(line.startswith("# m=") for line in header)


def test_solve_determinism(tmp_path):
    rc1, out1, _ = run(tmp_path, "a", command="solve", scenario="population",
                       m="8", seed=5, dump_fs=True)
    rc2, out2, _ = run(tmp_path, "b", command="solve", scenario="population",
                       m="8", seed=5, dump_fs=True)
    assert rc1 == rc2 == 0
    for name in ("solution.csv", "report.json", "manifest.json", "fs.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_certify_command(tmp_path):
    rc, out, manifest = run(tmp_path, "cert", command="certify",
                            scenario="undamped_neumann", m="8")
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["coercivity_alpha"] >= 1.0 - 1e-10
    assert cert["kernel_g"][0] == pytest.approx(0.5)


def test_certify_violated_bound_exits_2(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    sc = nlw.scenario_undamped_neumann()
    import dataclasses
    bad = dataclasses.replace(sc, gradient_coef="t - 0.5",
                              bounds=(("a", 0.0, None),), m=4)
    nlw.save_scenario(bad, cfg_file)
    rc, out, manifest = run(tmp_path, "badrun", command="certify",
                            config=str(cfg_file))
    assert rc == 2 and manifest["exit_code"] == 2
    assert manifest["witness"]["time"] is not None
    assert manifest["witness"]["point"] is not None


def test_config_with_misspelt_kind_exits_1(tmp_path):
    # before the check, kind "undampd" certified "1 + t" under the damped
    # symbols, so its declared a <= 1.5 was never tested
    cfg_file = tmp_path / "typo.cfg"
    sc = dataclasses.replace(nlw.scenario_undamped_neumann(),
                             gradient_coef="1 + t", m=4)
    nlw.save_scenario(sc, cfg_file)
    cfg_file.write_text(cfg_file.read_text().replace("kind = undamped",
                                                     "kind = undampd"))
    rc, _, manifest = run(tmp_path, "typo", command="certify",
                          config=str(cfg_file))
    assert rc == 1 and "undampd" in manifest["error"]


def test_axioms_command(tmp_path):
    rc, out, manifest = run(tmp_path, "ax", command="axioms",
                            scenario="undamped_neumann", m="8")
    assert rc == 0
    rep = json.loads((out / "axioms.json").read_text())
    assert rep["s1_defect"] <= 1e-12
    assert rep["adjoint_defect"] < 1e-6


def test_adjoint_gate_rejects_wrong_operator_table():
    # a table built for a(t) = 2 + t, checked against the undamped_neumann
    # operator (a(t) = 1 + t/2): the second-derivative probes pass it, the
    # adjoint identity does not
    sc = nlw.scenario_undamped_neumann()
    right = nlw.realize(sc, m=8, fs_step=0.1)
    wrong = nlw.realize(dataclasses.replace(sc, gradient_coef="2 + t"), m=8,
                        fs_step=0.1)
    gate = cli.AXIOM_THRESHOLDS["adjoint_defect"]
    assert nlw.adjoint_check(right.fs, right.op) < gate
    assert nlw.adjoint_check(wrong.fs, right.op) > gate


def test_converge_command(tmp_path):
    rc, out, manifest = run(tmp_path, "conv", command="converge",
                            scenario="population", m="4,8,16")
    assert rc == 0
    lines = [l for l in (out / "convergence.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0].split(",")[0] == "m"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 3
    diffs = [float(r[2]) for r in rows]
    assert diffs[0] >= diffs[1] >= diffs[2]
    assert manifest["convergence"]["nonincreasing"]


def test_converge_needs_m_list(tmp_path):
    rc, _, manifest = run(tmp_path, "convbad", command="converge",
                          scenario="population")
    assert rc == 1 and "error" in manifest


def test_manufactured_command(tmp_path):
    rc, out, manifest = run(tmp_path, "mfg", command="manufactured",
                            scenario="manufactured_coscos", m="8")
    assert rc == 0
    assert manifest["manufactured_error"]["sup_coefficient"] < 1e-5


def test_manufactured_command_requires_u_star(tmp_path):
    rc, _, manifest = run(tmp_path, "mfgbad", command="manufactured",
                          scenario="population")
    assert rc == 1


def test_unknown_scenario_exits_1(tmp_path):
    rc, _, manifest = run(tmp_path, "unk", command="solve", scenario="nope")
    assert rc == 1 and "unknown scenario" in manifest["error"]


@pytest.mark.parametrize("module", ["nonlocalwave", "nonlocalwave.cli"])
def test_module_entry_point_runs(tmp_path, module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(nlw.__file__).parents[1]), env.get("PYTHONPATH", "")])
    out = tmp_path / "unk"
    proc = subprocess.run(
        [sys.executable, "-m", module, "certify", "--scenario", "nope",
         "--out", str(out)], env=env, capture_output=True)
    assert proc.returncode == 1
    assert "error" in json.loads((out / "manifest.json").read_text())


def test_outputs_independent_of_blas_threads(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(nlw.__file__).parents[1]), env.get("PYTHONPATH", "")])
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "nonlocalwave", "solve", "--scenario",
             "population", "--m", "24", "--seed", "3", "--dump-fs",
             "--out", str(out)], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["fs.bin", "manifest.json", "report.json",
                                  "solution.csv"]
    assert outputs[0] == outputs[1]


def test_overrides_validated(tmp_path):
    rc, _, _ = run(tmp_path, "hm", command="solve",
                   scenario="undamped_neumann", m="1000")
    assert rc == 1
    rc, _, _ = run(tmp_path, "hh", command="solve",
                   scenario="undamped_neumann", h=1e-9)
    assert rc == 1


@pytest.mark.parametrize("flags, file_fields", [
    pytest.param({"m": "abc"}, {}, id="m-abc"),
    pytest.param({"m": "2.5"}, {}, id="m-fraction"),
    pytest.param({"h": float("nan")}, {}, id="h-nan"),
    pytest.param({"h": float("inf")}, {}, id="h-inf"),
    pytest.param({"seed": -1}, {}, id="seed-negative"),
    pytest.param({"tol": float("nan")}, {}, id="tol-nan"),
    pytest.param({"tol": float("inf")}, {}, id="tol-inf"),
    pytest.param({}, {"horizon": float("nan")}, id="file-horizon-nan"),
    pytest.param({}, {"h": float("nan")}, id="file-h-nan"),
    pytest.param({}, {"fs_step": 0.0}, id="file-fs_step-zero"),
    pytest.param({}, {"fs_step": -0.1}, id="file-fs_step-negative"),
    pytest.param({}, {"fs_step": 2.0}, id="file-fs_step-above-horizon"),
    pytest.param({}, {"m": 100000}, id="file-m-oversize"),
])
def test_bad_numbers_exit_1(tmp_path, monkeypatch, flags, file_fields):
    # every case is rejected before a basis is built, so the oversize m
    # never allocates
    def unreachable(*args, **kwargs):
        raise AssertionError("build_basis reached")
    monkeypatch.setattr(nlw.scenarios, "build_basis", unreachable)
    cfg_file = tmp_path / "run.cfg"
    nlw.save_scenario(dataclasses.replace(nlw.scenario_undamped_neumann(),
                                          **{"m": 4, **file_fields}), cfg_file)
    rc, _, manifest = run(tmp_path, "bad", command="solve",
                          config=str(cfg_file), **flags)
    assert rc == 1 and manifest["exit_code"] == 1 and "error" in manifest


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "axioms"])
def test_table_overflow_exits_1(tmp_path, command):
    # u'' = 1e4 (-Delta) u: the interval maps stay finite, their products
    # overflow part-way through the table
    cfg_file = tmp_path / "blowup.cfg"
    nlw.save_scenario(dataclasses.replace(nlw.scenario_undamped_neumann(),
                                          gradient_coef="-1e4", m=16),
                      cfg_file)
    rc, _, manifest = run(tmp_path, "blowup", command=command,
                          config=str(cfg_file))
    assert rc == 1 and manifest["exit_code"] == 1
    assert "between nodes" in manifest["error"]


@pytest.mark.parametrize("command, nodes, audit", [("solve", 81, False),
                                                   ("axioms", 11, True)])
def test_table_above_memory_budget_exits_1(tmp_path, monkeypatch, command,
                                           nodes, audit):
    # a fake budget one byte below the estimate: the solve's 81-node table,
    # or the rows of the 11-node audit grid that axioms holds at once
    need = nlw.propagator.table_bytes(4, nodes, audit=audit)
    monkeypatch.setattr(nlw.propagator, "memory_budget", lambda: need - 1)
    rc, out, manifest = run(tmp_path, "big", command=command,
                            scenario="undamped_neumann", m="4")
    assert rc == 1 and manifest["exit_code"] == 1
    assert "MemAvailable" in manifest["error"]
    assert manifest["outputs"] == []


def test_config_file_drives_solve(tmp_path):
    cfg_file = tmp_path / "toy.cfg"
    import dataclasses
    sc = dataclasses.replace(nlw.scenario_undamped_neumann(), m=4,
                             name="tiny")
    nlw.save_scenario(sc, cfg_file)
    rc, out, manifest = run(tmp_path, "cfgd", command="solve",
                            config=str(cfg_file))
    assert rc == 0 and manifest["scenario"] == "tiny"
    assert manifest["resolved"]["m"] == 4


def test_dump_fs_round_trips(tmp_path):
    rc, out, _ = run(tmp_path, "dump", command="solve",
                     scenario="undamped_neumann", m="4", dump_fs=True)
    assert rc == 0
    fs = nlw.load_fs(out / "fs.bin")
    assert fs.m == 4 and fs.kind == "undamped"
    assert fs.n_nodes == fs.time_grid.size
