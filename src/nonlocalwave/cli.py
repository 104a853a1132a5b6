"""Batch front end: certify / axioms / solve / converge / manufactured.

Every run writes a manifest with the resolved parameters and the constants
behind each number, then per-command artifacts (JSON reports, CSV tables,
optional binary dump of the fundamental-solution tables).  Exit status:
0 success, 1 configuration error (or a table that overflows), 2
certification or axiom failure, 3 fixed-point nonconvergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fixedpoint, forms, propagator, scenarios
from .errors import (CertificationError, ConfigurationError,
                     NonconvergenceError, PropagationError)

AXIOM_THRESHOLDS = {
    "s1_defect": 1e-12,
    "s2a_defect": 1e-5,
    "s2b_defect": 1e-5,
    "s4_defect": 1e-6,
    "composition_defect": 1e-6,
    "adjoint_defect": 1e-6,
}

_MAX_M = 512
_MIN_H = 1e-6


@dataclass
class RunConfig:
    command: str
    scenario: str | None = None
    config: str | None = None
    m: str | None = None          # int, or comma list for `converge`
    h: float | None = None
    tol: float | None = None
    out: str = "nlw_out"
    seed: int = 0
    dump_fs: bool = False


def _resolve_scenario(cfg):
    if cfg.config:
        return scenarios.load_scenario(cfg.config)
    if cfg.scenario:
        builtin = scenarios.builtin_scenarios()
        if cfg.scenario not in builtin:
            raise ConfigurationError(
                f"unknown scenario {cfg.scenario!r}; "
                f"available: {sorted(builtin)}")
        return builtin[cfg.scenario]
    raise ConfigurationError("one of --scenario or --config is required")


def _check_m(m):
    if not 1 <= m <= _MAX_M:
        raise ConfigurationError(f"m={m} outside the validated range 1..{_MAX_M}")
    return m


def _parse_m(cfg):
    if cfg.m is None:
        return None
    try:
        return [_check_m(int(p)) for p in str(cfg.m).split(",") if p.strip()]
    except ValueError:
        raise ConfigurationError(
            f"--m must be an integer or a comma list of integers, "
            f"got {cfg.m!r}") from None


def _validate(cfg):
    if cfg.h is not None and not (np.isfinite(cfg.h) and cfg.h >= _MIN_H):
        raise ConfigurationError(
            f"h={cfg.h} is not a finite step of at least {_MIN_H}")
    if cfg.tol is not None and not (np.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigurationError(f"tol={cfg.tol} must be finite and positive")
    if cfg.seed < 0:
        raise ConfigurationError(f"seed={cfg.seed} must be >= 0")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path, payload):
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2)
                    + "\n")


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows, constants=None):
    lines = []
    for key, val in (constants or {}).items():
        lines.append(f"# {key}={_csv_cell(val)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _solution_rows(traj):
    m = traj.m
    header = ["t", "u_h_norm", "v_h_norm"] + \
        [f"u_{k}" for k in range(m)] + [f"v_{k}" for k in range(m)]
    rows = []
    for i, t in enumerate(traj.grid):
        rows.append([t, float(np.linalg.norm(traj.u[i])),
                     float(np.linalg.norm(traj.v[i]))]
                    + list(traj.u[i]) + list(traj.v[i]))
    return header, rows


def _base_manifest(cfg, scenario, m, h):
    return {
        "command": cfg.command,
        "scenario": scenario.name,
        "seed": cfg.seed,
        "resolved": {
            "m": m, "h": h, "fs_step": scenario.fs_step,
            "horizon": scenario.horizon, "kind": scenario.kind,
            "engine": scenario.engine,
            "gradient_coef": scenario.gradient_coef,
            "zeroth_coef": scenario.zeroth_coef,
            "damping_coef": scenario.damping_coef,
            "nonlinearity": scenario.nonlinearity,
            "kappa1": scenario.kappa1, "offset1": scenario.offset1,
            "kappa2": scenario.kappa2, "offset2": scenario.offset2,
            "manufactured_u": scenario.manufactured_u,
            "tol": cfg.tol,
        },
        "outputs": [],
    }


def run(cfg):
    """Execute one command; returns the process exit status."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"command": cfg.command, "seed": cfg.seed}
    exit_code = 0
    try:
        _validate(cfg)
        scenario = _resolve_scenario(cfg)
        m_list = _parse_m(cfg)
        m = m_list[0] if (m_list and cfg.command != "converge") else None
        h = cfg.h
        tol = cfg.tol
        manifest = _base_manifest(cfg, scenario, _check_m(m or scenario.m),
                                  h or scenario.h)

        if cfg.command == "certify":
            rz_m = m or scenario.m
            basis = scenarios.build_basis(scenario.domain, rz_m)
            cert = forms.certify(scenarios.build_form(scenario), basis)
            kg = fixedpoint.nonlocal_kernel(scenario.kappa1, scenario.horizon)
            kh = fixedpoint.nonlocal_kernel(scenario.kappa2, scenario.horizon)
            payload = {
                "bound_c": cert.bound_c,
                "coercivity_alpha": cert.coercivity_alpha,
                "shift": cert.shift,
                "gradient_coercivity": cert.gradient_coercivity,
                "omega_deltas": cert.omega_deltas,
                "omega_values": cert.omega_values,
                "dini_integrals": cert.dini_integrals,
                "dini_warning": cert.dini_warning,
                "square_root_property": cert.square_root_property,
                "kernel_g": tuple(forms.kernel_lipschitz(kg, basis)),
                "kernel_h": tuple(forms.kernel_lipschitz(kh, basis)),
            }
            _write_json(out / "certificate.json", payload)
            manifest["certificate"] = payload
            manifest["outputs"].append("certificate.json")

        elif cfg.command == "axioms":
            axiom_step = 0.1 * scenario.horizon
            manifest["resolved"]["fs_step"] = axiom_step
            rz = scenarios.realize(scenario, m=m, h=h, fs_step=axiom_step,
                                   seed=cfg.seed)
            report = propagator.check_axioms(rz.fs, rz.op)
            report.adjoint_defect = propagator.adjoint_check(rz.fs, rz.op)
            _write_json(out / "axioms.json", report)
            manifest["axioms"] = report
            manifest["outputs"].append("axioms.json")
            failures = {k: v for k, v in AXIOM_THRESHOLDS.items()
                        if getattr(report, k) > v}
            if failures:
                manifest["axiom_failures"] = failures
                exit_code = 2

        elif cfg.command in ("solve", "manufactured"):
            if cfg.command == "manufactured" and scenario.manufactured_u is None:
                raise ConfigurationError(
                    "manufactured command needs a scenario with a u_star")
            rz = scenarios.realize(scenario, m=m, h=h, seed=cfg.seed)
            solve_cfg = fixedpoint.SolveConfig(seed=cfg.seed)
            if tol is not None:
                solve_cfg.tol = tol
            traj, report = scenarios.solve_realization(rz, solve_cfg)
            header, rows = _solution_rows(traj)
            _write_csv(out / "solution.csv", header, rows, constants={
                "scenario": scenario.name, "m": rz.basis.m, "h": rz.h,
                "predicted_q": report.predicted_q,
                "m1": report.m1, "m2": report.m2, "seed": cfg.seed})
            _write_json(out / "report.json", report.to_dict())
            manifest["report"] = report.to_dict()
            manifest["outputs"] += ["solution.csv", "report.json"]
            if cfg.dump_fs:
                propagator.dump_fs(rz.fs, out / "fs.bin")
                manifest["outputs"].append("fs.bin")
            if cfg.command == "manufactured":
                sup_coef, sup_fun = scenarios.manufactured_errors(rz, traj)
                manifest["manufactured_error"] = {
                    "sup_coefficient": sup_coef, "sup_function_space": sup_fun,
                    "span_defect": rz.span_defect}

        elif cfg.command == "converge":
            if not m_list or len(m_list) < 2:
                raise ConfigurationError(
                    "converge needs --m with a comma-separated increasing list")
            solve_cfg = fixedpoint.SolveConfig(seed=cfg.seed)
            if tol is not None:
                solve_cfg.tol = tol
            table = scenarios.refinement_sweep(
                scenario, m_list, h=h, fs_step=max(scenario.fs_step, 0.025),
                cfg=solve_cfg, seed=cfg.seed)
            rows = [[r.m, int(r.converged), r.traj_diff, r.fs_action_diff,
                     "" if r.residual_equation is None else r.residual_equation]
                    for r in table.rows]
            _write_csv(out / "convergence.csv",
                       ["m", "converged", "l2_diff_to_finest",
                        "fs_action_diff", "residual_equation"],
                       rows, constants={"scenario": scenario.name,
                                        "finest_m": table.finest_m,
                                        "seed": cfg.seed})
            manifest["convergence"] = {
                "finest_m": table.finest_m,
                "nonincreasing": table.diffs_nonincreasing()}
            manifest["outputs"].append("convergence.csv")

        else:
            raise ConfigurationError(f"unknown command {cfg.command!r}")

    except (ConfigurationError, PropagationError) as exc:
        manifest["error"] = str(exc)
        exit_code = 1
    except CertificationError as exc:
        manifest["error"] = str(exc)
        manifest["witness"] = {"time": exc.witness_time,
                               "point": exc.witness_point,
                               "vector": exc.witness_vector}
        exit_code = 2
    except NonconvergenceError as exc:
        manifest["error"] = str(exc)
        if exc.report is not None:
            manifest["report"] = exc.report.to_dict()
        exit_code = 3

    manifest["exit_code"] = exit_code
    _write_json(out / "manifest.json", manifest)
    return exit_code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="nonlocalwave",
        description="Spectral-Galerkin pipelines for second-order "
                    "non-autonomous evolution problems with nonlocal data")
    parser.add_argument("command",
                        choices=["certify", "axioms", "solve", "converge",
                                 "manufactured"])
    parser.add_argument("--scenario", help="built-in scenario name")
    parser.add_argument("--config", help="scenario configuration file")
    parser.add_argument("--m", help="mode count (comma list for converge)")
    parser.add_argument("--h", type=float, help="integrator substep")
    parser.add_argument("--tol", type=float, help="fixed-point tolerance")
    parser.add_argument("--out", default="nlw_out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump-fs", action="store_true",
                        help="write the fundamental-solution tables to fs.bin")
    ns = parser.parse_args(argv)
    return RunConfig(command=ns.command, scenario=ns.scenario,
                     config=ns.config, m=ns.m, h=ns.h, tol=ns.tol,
                     out=ns.out, seed=ns.seed, dump_fs=ns.dump_fs)


def main(argv=None):
    sys.exit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
