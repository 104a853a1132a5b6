"""Acceptance suite: one criterion per test, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import nonlocalwave as nlw
from conftest import random_smooth_problem
from nonlocalwave import cli


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _scenario_operator(scenario, m):
    basis = nlw.build_basis(scenario.domain, m)
    symbols = ("a", "c", "sigma") if scenario.kind == "undamped" else \
        ("d", "mu", "sigma")
    form = nlw.FormSpec(
        nlw.coefficient_field(symbols[0], scenario.gradient_coef),
        nlw.coefficient_field(symbols[1], scenario.zeroth_coef),
        None if scenario.damping_coef is None
        else nlw.coefficient_field(symbols[2], scenario.damping_coef),
        scenario.horizon)
    op = nlw.BlockOperator(nlw.stiffness_supplier(form, basis),
                           nlw.damping_supplier(form, basis), m)
    return basis, form, op


def test_criterion_1_fundamental_solution_oracle():
    lam = np.array([0.0, 1.0, 4.0, 9.0])
    op = nlw.undamped_operator(lambda t, _A=np.diag(lam): _A, 4)
    grid = np.arange(0.0, 2.0 + 1e-12, 0.1)
    start = time.perf_counter()
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    worst = 0.0
    w = np.sqrt(np.maximum(lam, 1.0))
    for i in range(grid.size):
        for j in range(i + 1):
            tau = grid[i] - grid[j]
            S = np.where(lam > 0, np.sin(np.sqrt(lam) * tau) / w, tau)
            C = np.where(lam > 0, np.cos(np.sqrt(lam) * tau), 1.0)
            worst = max(worst,
                        np.abs(fs.S(i, j) - np.diag(S)).max(),
                        np.abs(fs.C(i, j) - np.diag(C)).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 5.0
    _line(1, "fundamental-solution oracle", ok,
          f"max defect {worst:.3e} (tol 1e-7), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_axiom_suite():
    details = []
    ok = True
    for sc in (nlw.scenario_undamped_neumann(), nlw.scenario_population()):
        _, _, op = _scenario_operator(sc, 16)
        reps = {}
        # 0.1 for the axiom defects; 0.05 -> 0.025 for the halving stability
        # of the empirical Lipschitz constants (the base grid must resolve
        # the steepest derivative block, here sqrt(lambda_max) ~ 16)
        for step in (0.1, 0.05, 0.025):
            n = int(round(sc.horizon / step)) + 1
            fs = nlw.fundamental_solution(op, np.linspace(0, sc.horizon, n),
                                          h=sc.h)
            reps[step] = nlw.check_axioms(fs, op)
        r = reps[0.1]
        lip_pairs = [(reps[0.05].lip_s, reps[0.025].lip_s),
                     (reps[0.05].lip_c, reps[0.025].lip_c)]
        lip_stable = all(np.isfinite(a) and np.isfinite(b)
                         and abs(b - a) <= 0.1 * max(a, 1e-12)
                         for a, b in lip_pairs)
        sc_ok = (r.s1_defect <= 1e-12 and r.s2a_defect < 1e-5
                 and r.s2b_defect < 1e-5 and r.s4_defect < 1e-6
                 and r.composition_defect < 1e-6 and lip_stable)
        ok = ok and sc_ok
        details.append(
            f"{sc.name}: s1={r.s1_defect:.1e} s2a={r.s2a_defect:.1e} "
            f"s2b={r.s2b_defect:.1e} s4={r.s4_defect:.1e} "
            f"comp={r.composition_defect:.1e} "
            f"lipS={lip_pairs[0][0]:.3f}->{lip_pairs[0][1]:.3f} "
            f"lipC={lip_pairs[1][0]:.2f}->{lip_pairs[1][1]:.2f}")
    _line(2, "axiom suite", ok, "; ".join(details))


def test_criterion_3_adjoint_identity():
    op1 = nlw.undamped_operator(lambda t: np.array([[1.0 + t]]), 1)
    fs1 = nlw.fundamental_solution(op1, np.linspace(0, 1, 11), h=1e-3)
    d1 = nlw.adjoint_check(fs1, op1)
    sc = nlw.scenario_undamped_neumann()
    _, _, op2 = _scenario_operator(sc, 8)
    fs2 = nlw.fundamental_solution(op2, np.linspace(0, 1, 11), h=1e-3)
    d2 = nlw.adjoint_check(fs2, op2)
    ok = d1 < 1e-6 and d2 < 1e-6
    _line(3, "adjoint identity", ok,
          f"a(t)=1+t defect {d1:.3e}, Neumann scenario m=8 defect {d2:.3e} "
          f"(tol 1e-6)")


def test_criterion_4_representation_vs_direct_integration():
    grid = np.linspace(0.0, 1.0, 51)
    worst = 0.0
    for seed in range(20):
        p = random_smooth_problem(np.random.default_rng(seed))
        fs = nlw.fundamental_solution(p.op, grid, h=1e-3)
        rep = nlw.solve(p, fs, grid)
        direct = nlw.direct_integrate(p, 1e-3, grid=grid)
        worst = max(worst, float(np.max(np.linalg.norm(rep.u - direct.u,
                                                       axis=1))))
    # order check on the closed-form harmonic oscillator
    op = nlw.undamped_operator(lambda t: np.array([[1.0]]), 1)
    u0 = np.array([1.0, 0.0])
    exact = np.array([np.cos(np.pi), -np.sin(np.pi)])
    e1 = np.abs(nlw.propagate(op, 0.0, np.pi, u0, h=0.02) - exact).max()
    e2 = np.abs(nlw.propagate(op, 0.0, np.pi, u0, h=0.01) - exact).max()
    ratio = e1 / e2
    ok = worst < 1e-6 and ratio >= 14.0
    _line(4, "variation-of-constants vs direct integration", ok,
          f"sup disagreement {worst:.3e} over 20 seeded problems (tol 1e-6), "
          f"halving ratio {ratio:.1f} (>= 14)")


def test_criterion_5_damped_representation():
    # critically damped scalar
    opd = nlw.damped_operator(lambda t: np.array([[1.0]]),
                              lambda t: np.array([[2.0]]), 1)
    g1 = np.linspace(0.0, 1.0, 41)
    fsd = nlw.fundamental_solution(opd, g1, h=1e-3)
    pd = nlw.LinearProblem(opd, np.array([1.0]), np.zeros(1), None, 1.0)
    e_crit = abs(nlw.solve(pd, fsd, g1).u[-1, 0] - 2.0 / np.e)
    # resonance through the damped representation with B = 0
    op0 = nlw.damped_operator(lambda t: np.array([[1.0]]),
                              lambda t: np.zeros((1, 1)), 1)
    gp = np.linspace(0.0, np.pi, 65)
    fs0 = nlw.fundamental_solution(op0, gp, h=1e-3)
    pr = nlw.LinearProblem(op0, np.zeros(1), np.zeros(1),
                           lambda t: np.array([np.sin(t)]), np.pi)
    e_res = abs(nlw.solve(pr, fs0, gp).u[-1, 0] - np.pi / 2)
    # B = 0 consistency against the undamped path
    opu = nlw.undamped_operator(lambda t: np.array([[1.0]]), 1)
    fsu = nlw.fundamental_solution(opu, gp, h=1e-3)
    pu = nlw.LinearProblem(opu, np.zeros(1), np.zeros(1), pr.forcing, np.pi)
    e_b0 = np.abs(nlw.solve(pr, fs0, gp).u
                  - nlw.solve(pu, fsu, gp).u).max()
    ok = e_crit < 1e-6 and e_res < 1e-6 and e_b0 < 1e-9
    _line(5, "damped representation", ok,
          f"critical u(1) err {e_crit:.3e}, resonance u(pi) err {e_res:.3e} "
          f"(tol 1e-6), B=0 consistency {e_b0:.3e} (tol 1e-9)")


def test_criterion_6_contraction_engine():
    T = np.pi / 2
    basis = nlw.build_basis(nlw.interval(1.0), 1)
    op = nlw.undamped_operator(lambda t: np.array([[1.0]]), 1)
    grid = np.linspace(0.0, T, 65)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    h0 = nlw.nonlocal_kernel("0", T)

    g = nlw.nonlocal_kernel("0.5", T, offset="1")
    prob = nlw.NonlocalProblem(op, basis, g, h0, nlw.zero_nonlinearity(), T)
    traj, rep = nlw.contraction_solve(prob, fs, nlw.SolveConfig(tol=1e-12))
    e_u0 = abs(traj.u[0, 0] - 2.0)
    ratio_ok = rep.measured_ratio <= rep.predicted_q + 0.05

    # q >= 1 through the Duhamel term: partition produces the closed form
    rho, gamma = 0.8, 0.3
    g2 = nlw.nonlocal_kernel(repr(gamma), T, offset="1")
    prob2 = nlw.NonlocalProblem(op, basis, g2, h0,
                                nlw.linear_nonlinearity(rho), T)
    traj2, rep2 = nlw.contraction_solve(prob2, fs, nlw.SolveConfig(tol=1e-12))
    om = np.sqrt(1.0 - rho)
    u0x = 1.0 / (1.0 - gamma * np.sin(om * T) / om)
    e_part = np.abs(traj2.u[:, 0] - u0x * np.cos(om * grid)).max()

    # q >= 1 through the nonlocal term alone: global iteration, closed form
    g3 = nlw.nonlocal_kernel("0.7", T, offset="1")
    prob3 = nlw.NonlocalProblem(op, basis, g3, h0, nlw.zero_nonlinearity(), T)
    traj3, rep3 = nlw.contraction_solve(prob3, fs, nlw.SolveConfig(tol=1e-12))
    e_glob = np.abs(traj3.u[:, 0] - (1 / 0.3) * np.cos(grid)).max()

    ok = (e_u0 < 1e-8 and ratio_ok
          and rep2.predicted_q >= 1.0 and rep2.partition is not None
          and e_part < 1e-6
          and rep3.predicted_q >= 1.0 and e_glob < 1e-6)
    _line(6, "contraction engine", ok,
          f"affine u(0) err {e_u0:.2e} (tol 1e-8), ratio "
          f"{rep.measured_ratio:.3f} <= q+0.05 = {rep.predicted_q + 0.05:.3f}; "
          f"partitioned q={rep2.predicted_q:.2f} T*={rep2.t_star:.2f} "
          f"err {e_part:.2e}; irreducible q={rep3.predicted_q:.2f} "
          f"err {e_glob:.2e} (tol 1e-6)")


def test_criterion_7_nonlocal_certification(neumann_solved, population_solved):
    details = []
    ok = True
    for (rz, traj, rep), name in ((neumann_solved, "undamped_neumann"),
                                  (population_solved, "population")):
        sc_ok = (rep.residual_ic_u < 1e-6 and rep.residual_ic_v < 1e-6
                 and rep.residual_equation < 1e-4 and rep.gronwall_ok)
        ok = ok and sc_ok
        details.append(
            f"{name}: |u(0)-g(u)|={rep.residual_ic_u:.1e} "
            f"|u'(0)-h(u)|={rep.residual_ic_v:.1e} "
            f"eq={rep.residual_equation:.1e} ball_ok={rep.gronwall_ok}")
    _line(7, "nonlocal certification", ok, "; ".join(details))


def test_criterion_8_galerkin_convergence():
    table = nlw.refinement_sweep(nlw.scenario_population(), [4, 8, 16, 32],
                                 fs_step=0.025)
    diffs = [r.traj_diff for r in table.rows[:-1]]
    actions = [r.fs_action_diff for r in table.rows[:-1]]
    strict = all(a > b for a, b in zip(diffs[:-1], diffs[1:]))
    act_dec = all(a > b for a, b in zip(actions[:-1], actions[1:]))
    gap = diffs[-1]
    ok = strict and act_dec and gap < 1e-4 and all(
        r.converged for r in table.rows)
    _line(8, "Galerkin refinement", ok,
          f"L2 diffs {['%.2e' % d for d in diffs]} strictly decreasing; "
          f"final gap {gap:.2e} (tol 1e-4); fs-action diffs decreasing "
          f"{['%.2e' % a for a in actions]}")


def test_criterion_9_manufactured_solutions():
    mk = nlw.builtin_scenarios()["manufactured_coscos"]
    rz = nlw.realize(mk)
    traj, _ = nlw.solve_realization(rz)
    sup_coef, sup_fun = nlw.manufactured_errors(rz, traj)
    # analytic u* with a full cosine tail: error drops spectrally in m
    sk = nlw.scenario_undamped_neumann()
    mk2 = nlw.manufactured("cos(t)*exp(cos(x))/2.718281828459045", sk)
    errs = {}
    for m in (4, 8):
        rz2 = nlw.realize(mk2, m=m, span_tol=None)
        t2, _ = nlw.solve_realization(rz2)
        errs[m] = nlw.manufactured_errors(rz2, t2)[1]
    drop = errs[4] / errs[8]
    ok = sup_fun < 1e-5 and drop > 10.0
    _line(9, "manufactured solutions", ok,
          f"cos(t)cos(x) sup error {sup_fun:.3e} (tol 1e-5); analytic u* "
          f"error {errs[4]:.2e} -> {errs[8]:.2e}, drop {drop:.0f}x (> 10x)")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = cli.run(cli.RunConfig(command="solve", scenario="population",
                                   m="8", seed=7, dump_fs=True,
                                   out=str(out)))
        assert rc == 0
        outputs.append({f.name: f.read_bytes()
                        for f in sorted(out.iterdir())})
    same = outputs[0].keys() == outputs[1].keys() and all(
        outputs[0][k] == outputs[1][k] for k in outputs[0])
    files = ", ".join(sorted(outputs[0]))
    _line(10, "determinism", same,
          f"byte-identical outputs for fixed seed ({files})")
