"""Cross-cutting invariants: complex data, 2D smoke, refinement orders."""

import dataclasses

import numpy as np

import nonlocalwave as nlw
from nonlocalwave.forms import vvprime_norm


def test_complex_initial_data_by_linearity():
    op = nlw.undamped_operator(lambda t: np.array([[2.0 + np.sin(t)]]), 1)
    u0 = np.array([1.0 + 2.0j, 0.5 - 1.0j])
    out = nlw.propagate(op, 0.0, 1.0, u0, h=1e-3)
    re = nlw.propagate(op, 0.0, 1.0, u0.real, h=1e-3)
    im = nlw.propagate(op, 0.0, 1.0, u0.imag, h=1e-3)
    np.testing.assert_allclose(out, re + 1j * im, atol=1e-14)


def test_complex_projection_and_norms(basis_pi8):
    vals = np.cos(basis_pi8.nodes_x) * (1.0 + 1.0j)
    c = nlw.project(basis_pi8, vals)
    assert np.iscomplexobj(c)
    assert np.isclose(c[1], (1.0 + 1.0j) * np.sqrt(np.pi / 2), atol=1e-12)
    h, v = nlw.norms(basis_pi8, c)
    assert h <= v


def test_complex_linear_solve():
    op = nlw.undamped_operator(lambda t: np.array([[1.0]]), 1)
    grid = np.linspace(0.0, 1.0, 33)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    p = nlw.LinearProblem(op, np.array([1.0 + 1.0j]), np.array([0.0j]),
                          lambda t: np.array([np.exp(1j * t)]), 1.0)
    traj = nlw.solve(p, fs, grid)
    p_re = nlw.LinearProblem(op, p.u0.real, p.u1.real,
                             lambda t: np.array([np.cos(t)]), 1.0)
    p_im = nlw.LinearProblem(op, p.u0.imag, p.u1.imag,
                             lambda t: np.array([np.sin(t)]), 1.0)
    t_re = nlw.solve(p_re, fs, grid)
    t_im = nlw.solve(p_im, fs, grid)
    np.testing.assert_allclose(traj.u, t_re.u + 1j * t_im.u, atol=1e-13)


def test_rectangle_assembly_diagonalises_laplacian():
    b = nlw.build_basis(nlw.rectangle(np.pi, np.pi), 4)
    form = nlw.FormSpec(nlw.coefficient_field("a", "1"), None, None, 1.0)
    A = nlw.assemble(form, b, 0.0)
    np.testing.assert_allclose(A, np.diag([0.0, 1.0, 1.0, 2.0]),
                               atol=1e-11)


def test_two_dimensional_scenario_smoke():
    sc = nlw.Scenario(
        name="rect_smoke", kind="undamped", engine="contraction",
        domain=nlw.rectangle(np.pi, np.pi),
        gradient_coef="1", zeroth_coef="1", damping_coef=None,
        nonlinearity="none",
        kappa1="0.5", offset1="0.25*cos(x)*cos(y)",
        kappa2="0.5", offset2=None,
        horizon=1.0, m=4, h=2e-3, fs_step=1.0 / 32.0)
    rz = nlw.realize(sc)
    traj, rep = nlw.solve_realization(rz)
    assert rep.converged
    assert rep.residual_ic_u < 1e-8
    assert traj.sup_h_norm() > 0.1      # the offset drives a nonzero solution


def test_manufactured_h_refinement_is_fourth_order():
    skeleton = nlw.Scenario(
        name="damped_toy", kind="damped", engine="contraction",
        domain=nlw.interval(1.0), gradient_coef="0", zeroth_coef="1",
        damping_coef="2", nonlinearity="none",
        kappa1="0", offset1=None, kappa2="0", offset2=None,
        horizon=1.0, m=1, h=1e-3, fs_step=1.0 / 64.0)
    sc = nlw.manufactured("(1 + t)*exp(-t)", skeleton)
    errs = []
    for k in (8, 16, 32):
        rz = nlw.realize(sc, h=1.0 / k, fs_step=1.0 / k)
        traj, _ = nlw.solve_realization(rz, nlw.SolveConfig(tol=1e-13))
        errs.append(np.abs(traj.u[:, 0]
                           - (1.0 + rz.grid) * np.exp(-rz.grid)).max())
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


def test_shipped_forms_respect_certified_bounds(rng):
    for sc in (nlw.scenario_undamped_neumann(), nlw.scenario_population()):
        basis = nlw.build_basis(sc.domain, 8)
        syms = ("a", "c") if sc.kind == "undamped" else ("d", "mu")
        form = nlw.FormSpec(nlw.coefficient_field(syms[0], sc.gradient_coef),
                            nlw.coefficient_field(syms[1], sc.zeroth_coef),
                            None, sc.horizon)
        cert = nlw.certify(form, basis)
        for t in rng.uniform(0.0, sc.horizon, 100):
            A = nlw.assemble(form, basis, t)
            assert vvprime_norm(A, basis.v_weights) <= \
                cert.bound_c * (1.0 + 1e-8)
