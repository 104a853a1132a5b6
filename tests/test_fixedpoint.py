import numpy as np
import pytest

import nonlocalwave as nlw
from nonlocalwave import ConfigurationError, NonconvergenceError, quadrature
from nonlocalwave.fixedpoint import (MAX_ITER, REFINE_PROBES, FixedPointReport,
                                     _homotopy, _nonlocal_data, _solution_map,
                                     growth_excess)


@pytest.fixture(scope="module")
def scalar_basis():
    return nlw.build_basis(nlw.interval(1.0), 1)   # Psi_0 = 1, coeffs = values


@pytest.fixture(scope="module")
def harmonic_setup(scalar_basis):
    T = np.pi / 2
    op = nlw.undamped_operator(lambda t: np.array([[1.0]]), 1)
    grid = np.linspace(0.0, T, 65)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    return scalar_basis, op, fs, T


def make_problem(basis, op, T, gamma, offset, nl=None, kappa2="0"):
    g = nlw.nonlocal_kernel(repr(float(gamma)), T, offset=offset)
    h = nlw.nonlocal_kernel(kappa2, T)
    return nlw.NonlocalProblem(op, basis, g, h, nl or nlw.zero_nonlinearity(), T)


def test_apply_kernel_average_of_constant(scalar_basis):
    T = 2.0
    k = nlw.nonlocal_kernel("0.5", T)         # kappa = 1/T
    grid = np.linspace(0.0, T, 33)
    traj = nlw.Trajectory(grid, np.ones((33, 1)), np.zeros((33, 1)))
    out = nlw.apply_kernel(k, traj, scalar_basis)
    np.testing.assert_allclose(out, [1.0], atol=1e-12)


def test_apply_kernel_zero_kernel_returns_offset(scalar_basis):
    k = nlw.nonlocal_kernel("0", 1.0, offset="3")
    grid = np.linspace(0.0, 1.0, 33)
    traj = nlw.zero_trajectory(grid, 1)
    np.testing.assert_allclose(nlw.apply_kernel(k, traj, scalar_basis), [3.0],
                               atol=1e-12)


def test_apply_kernel_cosine_integral(scalar_basis):
    T = np.pi / 2
    gamma = 0.7
    k = nlw.nonlocal_kernel(repr(gamma), T)
    grid = np.linspace(0.0, T, 129)
    traj = nlw.Trajectory(grid, np.cos(grid)[:, None], np.zeros((129, 1)))
    out = nlw.apply_kernel(k, traj, scalar_basis)
    assert abs(out[0] - gamma) < 1e-9          # gamma * int_0^{pi/2} cos = gamma


def test_apply_kernel_space_dependent(basis_pi8):
    # kappa(s, x) = cos(x)/T picks the first cosine coefficient of u
    T = 1.0
    k = nlw.nonlocal_kernel("cos(x)", T)
    grid = np.linspace(0.0, T, 33)
    u = np.zeros((33, 8))
    u[:, 0] = 1.0                              # u = constant mode
    traj = nlw.Trajectory(grid, u, np.zeros_like(u))
    out = nlw.apply_kernel(k, traj, basis_pi8)
    # int cos(x) * (1/sqrt(pi)) * psi_j dx: only mode 1 survives
    assert abs(out[1] - np.sqrt(np.pi / 2) / np.sqrt(np.pi)) < 1e-10
    assert abs(out[0]) < 1e-10


def test_apply_kernel_grid_requirements(scalar_basis):
    k = nlw.nonlocal_kernel("1", 1.0)
    with pytest.raises(ConfigurationError):
        nlw.apply_kernel(k, nlw.zero_trajectory(np.linspace(0, 1, 3), 1),
                         scalar_basis)
    with pytest.raises(ConfigurationError):
        nlw.apply_kernel(k, nlw.zero_trajectory(np.linspace(0, 0.5, 33), 1),
                         scalar_basis)


def test_superpose_zero_and_identity(scalar_basis):
    grid = np.linspace(0.0, 1.0, 9)
    traj = nlw.Trajectory(grid, np.linspace(0, 1, 9)[:, None],
                          np.zeros((9, 1)))
    out = nlw.superpose(nlw.zero_nonlinearity(), traj)
    assert np.all(out == 0.0)
    ident = nlw.linear_nonlinearity(1.0)
    np.testing.assert_allclose(nlw.superpose(ident, traj), traj.u)


def test_superpose_growth_bound_tanh(basis_pi8, rng):
    nl = nlw.pointwise_nonlinearity(basis_pi8,
                                    lambda t, vals: np.tanh(vals),
                                    kind="growth", growth_a=1.0, lipschitz=1.0)
    grid = np.linspace(0.0, 1.0, 9)
    traj = nlw.Trajectory(grid, rng.standard_normal((9, 8)),
                          np.zeros((9, 8)))
    assert growth_excess(nl, traj) <= 1e-12
    nlw.validate_growth(nl, 8, 1.0, rng)


def per_node_superpose(nl, traj):
    return np.array([nl.evaluator(t, traj.u[i])
                     for i, t in enumerate(traj.grid)])


@pytest.fixture(scope="module")
def manufactured_rz():
    sc = nlw.builtin_scenarios()["manufactured_coscos"]
    return nlw.realize(sc, m=6, fs_step=0.05)


@pytest.mark.parametrize("which", ["pointwise", "linear", "zero",
                                   "manufactured"])
def test_superpose_matches_per_node_loop(which, basis_pi8, manufactured_rz):
    if which == "manufactured":
        nl, basis = manufactured_rz.problem.nonlinearity, manufactured_rz.basis
    else:
        basis = basis_pi8
        nl = {"pointwise": nlw.pointwise_nonlinearity(
                  basis, lambda t, v: np.sin(1 + t) * np.tanh(v) + t * v ** 2,
                  kind="growth"),
              "linear": nlw.linear_nonlinearity(0.7),
              "zero": nlw.zero_nonlinearity()}[which]
    grid = np.linspace(0.0, 1.0, 21)
    u = np.random.default_rng(4).standard_normal((grid.size, basis.m))
    traj = nlw.Trajectory(grid, u, np.zeros_like(u))
    got = nlw.superpose(nl, traj)
    want = per_node_superpose(nl, traj)
    assert got.shape == want.shape == u.shape
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def per_node_kernel(kernel, traj, basis):
    """g(u) by the per-node Gram formula sum_i w_i K(s_i) u(s_i) + offset."""
    w = quadrature.composite_weights(traj.grid)
    out = np.zeros(basis.m)
    for i, s in enumerate(traj.grid):
        vals = np.broadcast_to(np.asarray(
            kernel.evaluator(s, basis.nodes_x, basis.nodes_y), dtype=float),
            basis.nodes_x.shape)
        K = (basis.eval_table * (basis.weights * vals)) @ basis.eval_table.T
        out += w[i] * (K @ traj.u[i])
    return out + kernel.offset_coeffs(basis)


@pytest.mark.parametrize("domain", [nlw.interval(np.pi),
                                    nlw.rectangle(1.0, 2.0)])
@pytest.mark.parametrize("kind", ["time-only", "x-dependent", "callable"])
def test_apply_kernel_matches_per_node_gram(kind, domain):
    basis = nlw.build_basis(domain, 7)
    T = 1.5
    kernel = {
        "time-only": nlw.nonlocal_kernel("exp(-t)/2", T, offset="cos(x)"),
        "x-dependent": nlw.nonlocal_kernel("exp(-t)*cos(x) + t*x*y", T),
        "callable": nlw.nonlocal_kernel(
            lambda s, x, y: np.exp(-s) * (1.0 + x ** 2), T)}[kind]
    grid = np.linspace(0.0, T, 26)     # odd interval count: the 3/8 panel
    u = np.random.default_rng(6).standard_normal((grid.size, basis.m))
    traj = nlw.Trajectory(grid, u, np.zeros_like(u))
    got = nlw.apply_kernel(kernel, traj, basis)
    want = per_node_kernel(kernel, traj, basis)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def test_validate_growth_detects_violation(rng):
    bad = nlw.Nonlinearity(lambda t, u: 3.0 * u, "growth", growth_a=1.0)
    with pytest.raises(ConfigurationError):
        nlw.validate_growth(bad, 4, 1.0, rng)


def test_contraction_affine_toy(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 0.5, "1")
    traj, rep = nlw.contraction_solve(prob, fs, nlw.SolveConfig(tol=1e-12))
    assert abs(traj.u[0, 0] - 2.0) < 1e-8
    assert abs(rep.predicted_q - 0.5 * T) < 1e-9
    assert rep.measured_ratio <= rep.predicted_q + 0.05
    np.testing.assert_allclose(traj.u[:, 0], 2.0 * np.cos(fs.time_grid),
                               atol=1e-7)
    assert rep.residual_ic_u < 1e-10 and rep.residual_ic_v < 1e-10


def test_contraction_no_coupling_single_effective_iteration(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 0.0, "1")
    traj, rep = nlw.contraction_solve(prob, fs)
    assert rep.iterations <= 2
    assert rep.update_norms[1] < 1e-12
    np.testing.assert_allclose(traj.u[:, 0], np.cos(fs.time_grid), atol=1e-9)


def test_contraction_requires_lipschitz_constant(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    nl = nlw.Nonlinearity(lambda t, u: u, "growth", growth_a=1.0)
    prob = make_problem(basis, op, T, 0.1, "1", nl=nl)
    with pytest.raises(ConfigurationError):
        nlw.contraction_solve(prob, fs)


def test_contraction_partition_matches_closed_form(harmonic_setup):
    # f(t,u) = rho u makes q >= 1 through the Duhamel term; the partition
    # must reproduce u(t) = u0 cos(omega t) with omega^2 = 1 - rho
    basis, op, fs, T = harmonic_setup
    rho, gamma = 0.8, 0.3
    prob = make_problem(basis, op, T, gamma, "1",
                        nl=nlw.linear_nonlinearity(rho))
    traj, rep = nlw.contraction_solve(prob, fs, nlw.SolveConfig(tol=1e-12))
    assert rep.predicted_q >= 1.0
    assert rep.t_star is not None and rep.t_star < T
    assert rep.partition is not None and len(rep.partition) > 2
    om = np.sqrt(1.0 - rho)
    u0 = 1.0 / (1.0 - gamma * np.sin(om * T) / om)
    assert np.abs(traj.u[:, 0] - u0 * np.cos(om * fs.time_grid)).max() < 1e-6


def test_partition_consistent_with_single_interval(harmonic_setup):
    # semigroup consistency: at the global fixed point, the solution map by
    # concatenation over four chunks gives the fixed point back
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 0.3, "1",
                        nl=nlw.linear_nonlinearity(0.2))
    tol = 1e-10
    w, rep = nlw.contraction_solve(prob, fs, nlw.SolveConfig(tol=tol))
    assert rep.converged and rep.partition is None
    x0, y0 = _nonlocal_data(prob, w, FixedPointReport("test", False, 0))
    chunked = _solution_map(prob, fs, w, x0, y0,
                            partition=[0, 16, 32, 48, 64], tol=tol)
    assert np.abs(chunked.u - w.u).max() < 10.0 * tol


def test_contraction_irreducible_nonlocal_part_still_converges(harmonic_setup):
    # gamma T >= 1 but the spectral radius gamma sin(T) stays below one
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 0.7, "1")
    traj, rep = nlw.contraction_solve(prob, fs, nlw.SolveConfig(tol=1e-12))
    assert rep.predicted_q >= 1.0 and rep.t_star is None
    assert "irreducible" in rep.message
    u0 = 1.0 / (1.0 - 0.7)
    assert abs(traj.u[0, 0] - u0) < 1e-6


def test_contraction_divergence_reports_history(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 2.0, "1")   # spectral radius 2 sin T = 2
    with pytest.raises(NonconvergenceError) as exc:
        nlw.contraction_solve(prob, fs)
    rep = exc.value.report
    assert rep is not None and not rep.converged
    assert len(rep.update_norms) == rep.iterations == MAX_ITER
    assert rep.update_norms[-1] > rep.update_norms[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_divergence_report_carries_data_bounds(harmonic_setup):
    # g(w) = 1e200 * mean(w) + 1 overflows on the third iteration; the
    # attached report keeps the running bound of |g(w)|, at least |g(0)| = 1
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 1e200, "1")
    with pytest.raises(NonconvergenceError, match="non-finite") as exc:
        nlw.contraction_solve(prob, fs)
    rep = exc.value.report
    assert rep.r1 >= 1.0 and rep.r2 == 0.0


@pytest.mark.parametrize("engine", [nlw.contraction_solve, nlw.relaxed_solve])
def test_engines_reject_table_of_other_kind(scalar_basis, engine):
    # with an undamped operator on a damped table (A = 1, B = 0.5) and
    # f = 0.2 u, both engines used to report convergence with an equation
    # residual of 0.24, against 1.6e-5 for the matching operator
    T = 1.0
    grid = np.linspace(0.0, T, 41)
    undamped = nlw.undamped_operator(lambda t: np.array([[1.0]]), 1)
    damped = nlw.damped_operator(lambda t: np.array([[1.0]]),
                                 lambda t: np.array([[0.5]]), 1)
    for op, table_op in ((undamped, damped), (damped, undamped)):
        fs = nlw.fundamental_solution(table_op, grid, h=1e-3)
        prob = make_problem(scalar_basis, op, T, 0.3, "1",
                            nl=nlw.linear_nonlinearity(0.2))
        with pytest.raises(ConfigurationError, match="family"):
            engine(prob, fs)


def test_relaxed_constant_g_two_iterations(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 0.0, "1")
    traj, rep = nlw.relaxed_solve(prob, fs)
    assert rep.iterations <= 2
    assert rep.update_norms[-1] < 1e-12
    np.testing.assert_allclose(traj.u[:, 0], np.cos(fs.time_grid), atol=1e-9)
    assert rep.converged and rep.lambda_reached == 1.0


def test_relaxed_homotopy_starts_at_zero(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    prob = make_problem(basis, op, T, 0.5, "1")
    rep = FixedPointReport("relaxed", False, 0)
    traj, converged = _homotopy(prob, fs, 1e-8, rep, [])
    assert converged and rep.homotopy_path[0] == (0.0, 0, 0.0)
    assert rep.lambda_reached == 1.0
    assert abs(traj.u[0, 0] - 2.0) < 1e-6


def test_stalled_homotopy_reports_measured_growth_excess(harmonic_setup,
                                                         monkeypatch):
    # gamma = 2 makes lambda T(w) expansive beyond lambda ~ 1/2, so the
    # homotopy stalls; f = 0.1 u breaks its declared bound |f| <= 0, so the
    # excess along the reached iterate is positive
    basis, op, fs, T = harmonic_setup
    nl = nlw.Nonlinearity(lambda t, u: 0.1 * u, "growth", growth_a=0.0)
    prob = make_problem(basis, op, T, 2.0, "1", nl=nl)
    finalised = []
    original = nlw.fixedpoint._finalise

    def spy(problem, fs, w, *args):
        finalised.append(w)
        return original(problem, fs, w, *args)

    monkeypatch.setattr(nlw.fixedpoint, "_finalise", spy)
    with pytest.raises(NonconvergenceError, match="homotopy stalled") as exc:
        nlw.relaxed_solve(prob, fs)
    rep = exc.value.report
    assert rep.growth_excess > 0.0
    assert rep.growth_excess == growth_excess(nl, finalised[-1])


def test_relaxed_matches_contraction(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    nl = nlw.pointwise_nonlinearity(basis, lambda t, v: np.tanh(v) * 0.3,
                                    kind="growth", growth_a=0.3, lipschitz=0.3)
    prob = make_problem(basis, op, T, 0.4, "1", nl=nl)
    t1, _ = nlw.relaxed_solve(prob, fs, nlw.SolveConfig(tol=1e-11))
    t2, _ = nlw.contraction_solve(prob, fs, nlw.SolveConfig(tol=1e-11))
    assert np.abs(t1.u - t2.u).max() < 1e-9


def test_relaxed_gronwall_ball_certificate(harmonic_setup):
    basis, op, fs, T = harmonic_setup
    nl = nlw.pointwise_nonlinearity(basis, lambda t, v: np.tanh(v),
                                    kind="growth", growth_a=1.0, lipschitz=1.0)
    prob = make_problem(basis, op, T, 0.4, "1", nl=nl)
    traj, rep = nlw.relaxed_solve(prob, fs)
    assert rep.converged and rep.gronwall_ok
    assert traj.sup_h_norm() <= rep.gronwall_radius + 1e-6


def test_galerkin_refine_diagonal_tails():
    # autonomous diagonal, f = 0, g = offset only: u_m(t) = C_m(t,0) beta and
    # the refinement differences are exactly the truncation tails of beta
    M = 6
    lam_full = np.arange(M, dtype=float) ** 2
    beta = np.array([1.0, 0.7, 0.5, 0.3, 0.2, 0.1])
    grid = np.linspace(0.0, 1.0, 33)

    def solve_level(m):
        basis = nlw.build_basis(nlw.interval(1.0), m)
        op = nlw.undamped_operator(
            lambda t, _A=np.diag(lam_full[:m]): _A, m)
        fs = nlw.fundamental_solution(op, grid, h=1e-3)
        g = nlw.NonlocalKernel(lambda s, x, y=None: 0.0 * x, 1.0,
                               offset=beta[:m],
                               expression=nlw.parse_expression("0"))
        h = nlw.nonlocal_kernel("0", 1.0)
        prob = nlw.NonlocalProblem(op, basis, g, h, nlw.zero_nonlinearity(),
                                   1.0)
        traj, rep = nlw.contraction_solve(prob, fs)
        return nlw.fixedpoint.RefinementLevel(m, fs, traj, rep)

    table = nlw.galerkin_refine(solve_level, [2, 4, 6],
                                rng=np.random.default_rng(1))
    assert table.diffs_nonincreasing()
    # closed-form tail: sqrt(int sum_{k>=m} beta_k^2 cos^2(k tau))
    from nonlocalwave import quadrature
    for row, m in zip(table.rows[:-1], (2, 4)):
        tails = np.array([
            sum(beta[k] ** 2 * np.cos(np.sqrt(lam_full[k]) * t) ** 2
                for k in range(m, M)) for t in grid])
        expect = float(np.sqrt(quadrature.integrate(tails, grid)))
        assert np.isclose(row.traj_diff, expect, rtol=1e-6)


def test_galerkin_refine_equal_levels_zero_difference(harmonic_setup):
    basis, op, fs, T = harmonic_setup

    def solve_level(m):
        prob = make_problem(basis, op, T, 0.3, "1")
        traj, rep = nlw.contraction_solve(prob, fs)
        return nlw.fixedpoint.RefinementLevel(1, fs, traj, rep)

    table = nlw.galerkin_refine(solve_level, [1, 1])
    assert table.rows[0].traj_diff == 0.0
    assert table.rows[0].fs_action_diff == 0.0


def test_galerkin_refine_marks_failed_levels(harmonic_setup):
    basis, op, fs, T = harmonic_setup

    def solve_level(m):
        if m == 1:
            raise NonconvergenceError("forced failure")
        prob = make_problem(basis, op, T, 0.3, "1")
        traj, rep = nlw.contraction_solve(prob, fs)
        return nlw.fixedpoint.RefinementLevel(1, fs, traj, rep)

    table = nlw.galerkin_refine(solve_level, [1, 2])
    assert not table.rows[0].converged
    assert np.isnan(table.rows[0].traj_diff)


def test_block_bounds_computed_once_per_table(diag_fs):
    def block_bounds(fs):
        return (*fs.first_column_bounds(), fs.duhamel_bound())
    first = block_bounds(diag_fs)
    second = block_bounds(diag_fs)
    assert first == second and all(isinstance(x, float) for x in first)
    fresh = nlw.FundamentalSolution(diag_fs.time_grid, diag_fs.m,
                                    diag_fs.kind, diag_fs.blocks, diag_fs.h)
    assert block_bounds(fresh) == first
    # the definitions: sup_t ||C(t,0)||, sup_t ||S(t,0)||, M_{2,T}
    N = diag_fs.n_nodes
    assert first[0] == max(np.linalg.norm(diag_fs.C(i, 0), 2) for i in range(N))
    assert first[1] == max(np.linalg.norm(diag_fs.S(i, 0), 2) for i in range(N))


def test_galerkin_fs_action_matches_per_pair_loop():
    grid = np.linspace(0.0, 1.0, 9)
    rng = np.random.default_rng(2)
    sym = 0.3 * rng.standard_normal((4, 4))
    full = np.diag([1.0, 3.0, 5.0, 8.0]) + sym @ sym.T

    def solve_level(m):
        op = nlw.undamped_operator(lambda t, _A=full[:m, :m]: (1 + t) * _A, m)
        fs = nlw.fundamental_solution(op, grid, h=1e-3)
        return nlw.fixedpoint.RefinementLevel(
            m, fs, nlw.zero_trajectory(grid, m), None)

    table = nlw.galerkin_refine(solve_level, [2, 4],
                                rng=np.random.default_rng(9))
    coarse, fine = solve_level(2).fs, solve_level(4).fs
    ys = np.random.default_rng(9).standard_normal((REFINE_PROBES, 4))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    expect = max(
        np.linalg.norm(fine.S(i, j) @ y
                       - np.concatenate([coarse.S(i, j) @ y[:2], [0, 0]]))
        for y in ys for i in range(grid.size) for j in range(i + 1))
    assert table.rows[0].fs_action_diff == pytest.approx(expect, rel=1e-13)
