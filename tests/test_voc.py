import numpy as np
import pytest

import nonlocalwave as nlw
from nonlocalwave import ConfigurationError, quadrature, voc
from nonlocalwave.fixedpoint import gronwall_radius


def scalar_op(a, b=None):
    a_of_t = (lambda t: np.array([[a(t)]])) if callable(a) \
        else (lambda t: np.array([[float(a)]]))
    if b is None:
        return nlw.undamped_operator(a_of_t, 1)
    b_of_t = (lambda t: np.array([[b(t)]])) if callable(b) \
        else (lambda t: np.array([[float(b)]]))
    return nlw.damped_operator(a_of_t, b_of_t, 1)


@pytest.fixture(scope="module")
def harmonic_fs():
    op = scalar_op(1.0)
    grid = np.linspace(0.0, np.pi, 65)
    return op, nlw.fundamental_solution(op, grid, h=1e-3)


def test_homogeneous_solution_is_pure_propagation(harmonic_fs):
    op, fs = harmonic_fs
    p = nlw.LinearProblem(op, np.array([0.7]), np.array([-0.3]), None, np.pi)
    traj = nlw.solve(p, fs, fs.time_grid)
    for i in range(fs.n_nodes):
        expect = fs.C(i, 0) @ p.u0 + fs.S(i, 0) @ p.u1
        np.testing.assert_allclose(traj.u[i], expect, atol=1e-14)


def test_constant_forcing_closed_form(harmonic_fs):
    # u'' + u = 1, zero data: u(t) = 1 - cos t, u(pi) = 2
    op, fs = harmonic_fs
    p = nlw.LinearProblem(op, np.zeros(1), np.zeros(1),
                          lambda t: np.array([1.0]), np.pi)
    traj = nlw.solve(p, fs, fs.time_grid)
    assert abs(traj.u[-1, 0] - 2.0) < 1e-7
    np.testing.assert_allclose(traj.u[:, 0], 1.0 - np.cos(fs.time_grid),
                               atol=1e-7)


def test_zero_problem_gives_zero(harmonic_fs):
    op, fs = harmonic_fs
    p = nlw.LinearProblem(op, np.zeros(1), np.zeros(1), None, np.pi)
    traj = nlw.solve(p, fs, fs.time_grid)
    assert traj.sup_h_norm() == 0.0
    direct = nlw.direct_integrate(p, 1e-2)
    assert direct.sup_h_norm() == 0.0


def test_output_grid_must_refine_fs_grid(harmonic_fs):
    op, fs = harmonic_fs
    p = nlw.LinearProblem(op, np.zeros(1), np.zeros(1), None, np.pi)
    with pytest.raises(ConfigurationError):
        nlw.solve(p, fs, np.linspace(0, np.pi, 7))


def test_solver_kind_dispatch(harmonic_fs):
    # the table must be of the operator's kind, or the startup term would
    # read the wrong B(t): both mismatches are rejected
    op, fs = harmonic_fs
    damped_op = scalar_op(1.0, 0.5)
    damped_fs = nlw.fundamental_solution(damped_op, fs.time_grid, h=1e-3)
    for p_op, table in ((op, damped_fs), (damped_op, fs)):
        p = nlw.LinearProblem(p_op, np.zeros(1), np.ones(1),
                              lambda t: np.array([1.0]), np.pi)
        with pytest.raises(ConfigurationError, match="family"):
            nlw.solve(p, table, table.time_grid)


def test_damped_critical_closed_form():
    op = scalar_op(1.0, 2.0)
    grid = np.linspace(0.0, 1.0, 41)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    p = nlw.LinearProblem(op, np.array([1.0]), np.zeros(1), None, 1.0)
    traj = nlw.solve(p, fs, grid)
    assert abs(traj.u[-1, 0] - 2.0 / np.e) < 1e-9
    np.testing.assert_allclose(traj.u[:, 0], (1 + grid) * np.exp(-grid),
                               atol=1e-9)


def test_damped_first_order_reduction_closed_form():
    # u'' + u' = 1, zero data: u(t) = t - 1 + exp(-t); u(1) = 1/e
    op = scalar_op(0.0, 1.0)
    grid = np.linspace(0.0, 1.0, 41)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    p = nlw.LinearProblem(op, np.zeros(1), np.zeros(1),
                          lambda t: np.array([1.0]), 1.0)
    traj = nlw.solve(p, fs, grid)
    assert abs(traj.u[-1, 0] - 1.0 / np.e) < 1e-7


def test_zero_damping_consistent_with_undamped_path():
    a_of_t = lambda t: np.array([[2.0 + np.sin(t)]])
    op_u = nlw.undamped_operator(a_of_t, 1)
    op_d = nlw.damped_operator(a_of_t, lambda t: np.zeros((1, 1)), 1)
    grid = np.linspace(0.0, 1.0, 21)
    fs_u = nlw.fundamental_solution(op_u, grid, h=1e-3)
    fs_d = nlw.fundamental_solution(op_d, grid, h=1e-3)
    forcing = lambda t: np.array([np.cos(2 * t)])
    pu = nlw.LinearProblem(op_u, np.array([0.4]), np.array([-0.2]), forcing, 1.0)
    pd = nlw.LinearProblem(op_d, np.array([0.4]), np.array([-0.2]), forcing, 1.0)
    tu = nlw.solve(pu, fs_u, grid)
    td = nlw.solve(pd, fs_d, grid)
    assert np.abs(tu.u - td.u).max() < 1e-9


def test_resonance_closed_form_direct():
    # u'' + u = sin t: u(t) = (sin t - t cos t)/2, u(pi) = pi/2
    op = scalar_op(1.0)
    p = nlw.LinearProblem(op, np.zeros(1), np.zeros(1),
                          lambda t: np.array([np.sin(t)]), np.pi)
    grid = np.linspace(0.0, np.pi, 65)
    direct = nlw.direct_integrate(p, 1e-3, grid=grid)
    assert abs(direct.u[-1, 0] - np.pi / 2) < 1e-6
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    rep = nlw.solve(p, fs, grid)
    assert abs(rep.u[-1, 0] - np.pi / 2) < 1e-6


from conftest import random_smooth_problem


def test_oracle_equivalence_small_batch():
    grid = np.linspace(0.0, 1.0, 51)
    for seed in range(5):
        p = random_smooth_problem(np.random.default_rng(seed))
        fs = nlw.fundamental_solution(p.op, grid, h=1e-3)
        rep = nlw.solve(p, fs, grid)
        direct = nlw.direct_integrate(p, 1e-3, grid=grid)
        disagree = np.max(np.linalg.norm(rep.u - direct.u, axis=1))
        assert disagree < 1e-6


@pytest.mark.parametrize("grid", [[1.0, 0.5, 0.0], [0.0, np.nan, 1.0],
                                  [[0.0, 0.5, 1.0]], []])
def test_direct_integrate_rejects_bad_grid_before_integrating(monkeypatch,
                                                              grid):
    def unreachable(*args, **kwargs):
        raise AssertionError("integration started")
    monkeypatch.setattr(voc, "_span", unreachable)
    p = random_smooth_problem(np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
        nlw.direct_integrate(p, 1e-3, grid=grid)


def test_windowed_representation_matches_oracle():
    # the partition path: data frozen at an interior node t_a
    grid = np.linspace(0.0, 1.0, 51)
    rng = np.random.default_rng(11)
    p = random_smooth_problem(rng)
    fs = nlw.fundamental_solution(p.op, grid, h=1e-3)
    a = 17
    xa, ya = rng.standard_normal(8), rng.standard_normal(8)
    F = np.array([p.forcing(t) for t in grid])
    u, v = voc.representation(fs, p.op, xa, ya, F, start=a)
    p_a = nlw.LinearProblem(p.op, xa, ya, p.forcing, 1.0)
    direct = nlw.direct_integrate(p_a, 1e-3, grid=grid[a:])
    assert np.max(np.linalg.norm(u[a:] - direct.u, axis=1)) < 1e-6
    # the velocity's first interval is a plain trapezoid, O(dt^3)
    assert np.max(np.linalg.norm(v[a:] - direct.v, axis=1)) < 1e-4


def test_linearity_superposition(rng):
    grid = np.linspace(0.0, 1.0, 51)
    p1 = random_smooth_problem(np.random.default_rng(7))
    op = p1.op
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    u0b, u1b = rng.standard_normal(8), rng.standard_normal(8)
    amp = rng.standard_normal(8)
    f2 = lambda t: amp * np.sin(t)
    p2 = nlw.LinearProblem(op, u0b, u1b, f2, 1.0)
    al, be = 0.6, -1.3
    p3 = nlw.LinearProblem(
        op, al * p1.u0 + be * p2.u0, al * p1.u1 + be * p2.u1,
        lambda t: al * p1.forcing(t) + be * p2.forcing(t), 1.0)
    t1 = nlw.solve(p1, fs, grid)
    t2 = nlw.solve(p2, fs, grid)
    t3 = nlw.solve(p3, fs, grid)
    assert np.abs(t3.u - (al * t1.u + be * t2.u)).max() < 1e-10


def test_gronwall_bound_for_linear_trajectories():
    grid = np.linspace(0.0, 1.0, 51)
    for seed in range(5):
        p = random_smooth_problem(np.random.default_rng(100 + seed))
        fs = nlw.fundamental_solution(p.op, grid, h=1e-3)
        traj = nlw.solve(p, fs, grid)
        sup = fs.sup_norms()
        b_l1 = np.trapezoid(
            [np.linalg.norm(p.forcing(t)) for t in grid], grid)
        radius = gronwall_radius(sup["C"], sup["S"],
                                 float(np.linalg.norm(p.u0)),
                                 float(np.linalg.norm(p.u1)),
                                 float(b_l1), 0.0, 1.0)
        assert traj.sup_h_norm() <= radius + 1e-8


def test_residual_exact_trajectory_second_order():
    op = scalar_op(1.0)
    errs = []
    for n in (33, 65):
        grid = np.linspace(0.0, np.pi, n)
        traj = nlw.Trajectory(grid, np.cos(grid)[:, None],
                              -np.sin(grid)[:, None])
        errs.append(nlw.residual(traj, op))
    assert 3.0 < errs[0] / errs[1] < 5.0     # one halving: ~4x


def test_residual_of_solver_output():
    # default-resolution grid: fine enough that the second-difference floor
    # sits below 1e-4
    op = scalar_op(1.0)
    grid = np.linspace(0.0, np.pi, 257)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    p = nlw.LinearProblem(op, np.array([1.0]), np.zeros(1),
                          lambda t: np.array([np.sin(2 * t)]), np.pi)
    traj = nlw.solve(p, fs, grid)
    assert nlw.residual(traj, op, np.sin(2 * grid)[:, None]) < 1e-4
    assert np.abs(traj.u[0] - p.u0).max() < 1e-12
    assert np.abs(traj.v[0] - p.u1).max() < 1e-12


def test_residual_zero_everything():
    op = scalar_op(1.0)
    grid = np.linspace(0.0, 1.0, 11)
    traj = nlw.zero_trajectory(grid, 1)
    assert nlw.residual(traj, op) == 0.0


def test_residual_semilinear_right_side(harmonic_fs):
    op, fs = harmonic_fs
    grid = fs.time_grid
    traj = nlw.Trajectory(grid, np.cos(grid)[:, None], -np.sin(grid)[:, None])
    # samples of the semilinear f(t, u) = u - cos(t), which vanishes along
    # u = cos(t), against f = 0 given as samples and as None
    r = nlw.residual(traj, op, traj.u - np.cos(grid)[:, None])
    r2 = nlw.residual(traj, op, np.zeros_like(traj.u))
    r3 = nlw.residual(traj, op)
    assert abs(r - r2) < 1e-12
    assert r2 == r3
    with pytest.raises(ConfigurationError):
        nlw.residual(traj, op, np.zeros(grid.size))


def random_family(kind, m=3, nodes=31, seed=5):
    """A random smooth operator of either kind and its table on [0, 1]."""
    rng = np.random.default_rng(seed)
    base = np.diag(rng.uniform(0.5, 6.0, m))
    sym = rng.standard_normal((m, m)) * 0.2
    sym = 0.5 * (sym + sym.T)
    a_of_t = lambda t: base + np.sin(1.3 * t) * sym
    if kind == "undamped":
        op = nlw.undamped_operator(a_of_t, m)
    else:
        damp = np.diag(rng.uniform(0.1, 0.8, m))
        op = nlw.damped_operator(a_of_t, lambda t: damp * (1.0 + 0.5 * t), m)
    grid = np.linspace(0.0, 1.0, nodes)
    return op, nlw.fundamental_solution(op, grid, h=1e-3)


def windowed_sum(fs, op, x0, y0, F, a, b):
    """The O(N^2) formula: composite weights on every sub-grid [t_a, t_i],
    summed over the stored blocks E(t_i, s_j), j = a..i."""
    m = fs.m
    grid = fs.time_grid
    u = np.zeros((b - a + 1, m), dtype=complex)
    v = np.zeros_like(u)
    for i in range(a, b + 1):
        E0 = fs.E(i, a)
        u[i - a] = E0[:m, :m] @ x0 + E0[:m, m:] @ y0
        v[i - a] = E0[m:, :m] @ x0 + E0[m:, m:] @ y0
        if F is None or i == a:
            continue
        w = quadrature.composite_weights(grid[a:i + 1])
        wF = w[:, None] * F[a:i + 1]
        blocks = np.stack([fs.E(i, j) for j in range(a, i + 1)])
        if i - a == 1:
            u[i - a] += voc.single_interval_duhamel(fs, op, i, a, F,
                                                    grid[i] - grid[a])
        else:
            u[i - a] += np.einsum("jab,jb->a", blocks[:, :m, m:], wF)
        v[i - a] += np.einsum("jab,jb->a", blocks[:, m:, m:], wF)
    return u, v


@pytest.mark.parametrize("kind", ["undamped", "damped"])
@pytest.mark.parametrize("data", ["real", "complex", "homogeneous"])
def test_recurrence_matches_windowed_sum(kind, data):
    op, fs = random_family(kind)
    m, N = fs.m, fs.n_nodes
    rng = np.random.default_rng(3)
    x0, y0 = rng.standard_normal(m), rng.standard_normal(m)
    F = rng.standard_normal((N, m))
    if data == "complex":
        x0 = x0 + 1j * rng.standard_normal(m)
        F = F + 1j * rng.standard_normal((N, m))
    elif data == "homogeneous":
        F = None
    for a in (0, 1, 17):
        for b in (a + 1, a + 2, a + 3, a + 4, a + 5, N - 1):
            u, v = voc.representation(fs, op, x0, y0, F, start=a, stop=b)
            ref_u, ref_v = windowed_sum(fs, op, x0, y0, F, a, b)
            for got, ref in ((u[a:b + 1], ref_u), (v[a:b + 1], ref_v)):
                err = np.abs(got - ref).max() / np.abs(ref).max()
                assert err < 1e-12, (a, b, err)


def test_recurrence_writes_only_its_window():
    op, fs = random_family("damped")
    m, N = fs.m, fs.n_nodes
    rng = np.random.default_rng(4)
    F = rng.standard_normal((N, m))
    u = np.full((N, m), np.nan)
    v = np.full((N, m), np.nan)
    voc.representation(fs, op, np.ones(m), np.zeros(m), F, start=5, stop=12,
                       u=u, v=v)
    assert np.all(np.isfinite(u[5:13])) and np.all(np.isfinite(v[5:13]))
    assert np.all(np.isnan(u[:5])) and np.all(np.isnan(u[13:]))
    assert np.all(np.isnan(v[:5])) and np.all(np.isnan(v[13:]))


class RecordingFamily(nlw.FundamentalSolution):
    """A table that records every block read and forbids whole rows."""

    def __init__(self, fs):
        super().__init__(fs.time_grid, fs.m, fs.kind, fs.blocks, fs.h)
        self.reads = []

    def E(self, i, j):
        self.reads.append((i, j))
        return super().E(i, j)

    def row(self, i):
        raise AssertionError("the representation must not read table rows")


@pytest.mark.parametrize("kind", ["undamped", "damped"])
def test_recurrence_reads_only_near_diagonal_blocks(kind):
    # the interval maps come from fs.blocks; what goes through E is the
    # startup rule's E(t_{a+1}, t_a), and no whole row is made
    op, fs = random_family(kind)
    rec = RecordingFamily(fs)
    m, N = fs.m, fs.n_nodes
    F = np.random.default_rng(6).standard_normal((N, m))
    for a in (0, 17):
        voc.representation(rec, op, np.ones(m), np.ones(m), F, start=a)
    assert set(rec.reads) == {(1, 0), (18, 17)}


def per_node_representation(fs, op, x0, y0, F, start=0, stop=None, u=None,
                            v=None):
    """The one-chain recurrence with every node's track formed in the node
    loop, one 2-D mat-vec per block read through E."""
    m = fs.m
    grid = fs.time_grid
    a = start
    b = grid.size - 1 if stop is None else stop
    if u is None:
        dt = np.result_type(x0, y0, float if F is None else F)
        u = np.empty((grid.size, m), dtype=dt)
        v = np.empty((grid.size, m), dtype=dt)
    X = np.concatenate([x0, y0])
    u[a], v[a] = X[:m], X[m:]
    if F is None or b == a:
        for i in range(a + 1, b + 1):
            X = fs.E(i, i - 1) @ X
            u[i], v[i] = X[:m], X[m:]
        return u, v
    h = quadrature.require_uniform(grid[a:b + 1])
    Z = np.zeros((b - a + 1, 2 * m), dtype=np.result_type(F, float))
    Z[:, m:] = F[a:b + 1]
    U = [X]
    V = X + h / 3.0 * Z[0]
    for k in range(1, b - a + 1):
        i = a + k
        phi = fs.E(i, i - 1)
        V = phi @ V + (4.0 * h / 3.0 if k % 2 else 2.0 * h / 3.0) * Z[k]
        if k == 1:
            duh = 0.5 * h * (phi @ Z[0] + Z[1])
            duh[:m] = voc.single_interval_duhamel(fs, op, i, a, F, h)
            U.append(phi @ X + duh)
        elif k % 2 == 0:
            U.append(V - h / 3.0 * Z[k])
        else:
            c = 9.0 * h / 8.0
            y = U[k - 3] + 3.0 * h / 8.0 * Z[k - 3]
            y = fs.E(i - 2, i - 3) @ y + c * Z[k - 2]
            y = fs.E(i - 1, i - 2) @ y + c * Z[k - 1]
            U.append(phi @ y + 3.0 * h / 8.0 * Z[k])
        u[i], v[i] = U[k][:m], U[k][m:]
    return u, v


def two_chain_representation(fs, op, x0, y0, F, start=0, stop=None, u=None,
                             v=None):
    """The recurrence with every node's Duhamel term formed in the node
    loop, one 2-D mat-vec per block read through E."""
    m = fs.m
    grid = fs.time_grid
    a = start
    b = grid.size - 1 if stop is None else stop
    if u is None:
        dt = np.result_type(x0, y0, float if F is None else F)
        u = np.empty((grid.size, m), dtype=dt)
        v = np.empty((grid.size, m), dtype=dt)
    X = np.concatenate([x0, y0])
    u[a], v[a] = X[:m], X[m:]
    forced = F is not None and b > a
    if forced:
        h = quadrature.require_uniform(grid[a:b + 1])
        Z = np.zeros((b - a + 1, 2 * m), dtype=np.result_type(F, float))
        Z[:, m:] = F[a:b + 1]
        acc = np.empty_like(Z)
        acc[0] = Z[0]
    for k in range(1, b - a + 1):
        i = a + k
        phi = fs.E(i, i - 1)
        X = phi @ X
        if not forced:
            u[i], v[i] = X[:m], X[m:]
            continue
        acc[k] = phi @ acc[k - 1] + (4.0 if k % 2 else 2.0) * Z[k]
        if k == 1:
            duh = 0.5 * h * (phi @ Z[0] + Z[1])
            duh[:m] = voc.single_interval_duhamel(fs, op, i, a, F, h)
        elif k % 2 == 0:
            duh = h / 3.0 * (acc[k] - Z[k])
        else:
            j, c = k - 3, 9.0 * h / 8.0
            y = h / 3.0 * (acc[j] - Z[j]) + 3.0 * h / 8.0 * Z[j]
            y = fs.E(i - 2, i - 3) @ y + c * Z[k - 2]
            y = fs.E(i - 1, i - 2) @ y + c * Z[k - 1]
            duh = phi @ y + 3.0 * h / 8.0 * Z[k]
        u[i], v[i] = X[:m] + duh[:m], X[m:] + duh[m:]
    return u, v


@pytest.mark.parametrize("kind", ["undamped", "damped"])
@pytest.mark.parametrize("data", ["real", "complex", "homogeneous"])
def test_representation_equals_per_node_loop(kind, data):
    op, fs = random_family(kind)
    m, N = fs.m, fs.n_nodes
    rng = np.random.default_rng(7)
    x0, y0 = rng.standard_normal(m), rng.standard_normal(m)
    F = rng.standard_normal((N, m))
    if data == "complex":
        y0 = y0 + 1j * rng.standard_normal(m)
        F = F + 1j * rng.standard_normal((N, m))
    elif data == "homogeneous":
        F = None
    dt = np.result_type(x0, y0, float if F is None else F)
    for a in (0, 1, 17):
        for stop in [a + K for K in range(6)] + [None]:
            got = voc.representation(fs, op, x0, y0, F, start=a, stop=stop)
            ref = per_node_representation(fs, op, x0, y0, F, start=a,
                                          stop=stop)
            b = N - 1 if stop is None else stop
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype == dt
                assert np.array_equal(g[a:b + 1], r[a:b + 1]), (a, stop)
            # given tracks: the rows outside the window keep their values
            u, v = np.full((N, m), 7.0, dt), np.full((N, m), -7.0, dt)
            voc.representation(fs, op, x0, y0, F, start=a, stop=stop,
                               u=u, v=v)
            assert np.array_equal(u[a:b + 1], ref[0][a:b + 1])
            assert np.array_equal(v[a:b + 1], ref[1][a:b + 1])
            outside = np.r_[0:a, b + 1:N]
            assert np.all(u[outside] == 7.0) and np.all(v[outside] == -7.0)


def test_representation_rejects_nonuniform_window():
    op = scalar_op(1.0)
    grid = np.array([0.0, 0.1, 0.2, 0.35, 0.5, 0.6])
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    F = np.ones((grid.size, 1))
    with pytest.raises(ConfigurationError):
        voc.representation(fs, op, np.ones(1), np.zeros(1), F)
    # a uniform sub-window of the same table is accepted
    u, _ = voc.representation(fs, op, np.ones(1), np.zeros(1), F,
                              start=0, stop=2)
    assert np.all(np.isfinite(u[:3]))


@pytest.mark.parametrize("kind", ["undamped", "damped"])
@pytest.mark.parametrize("data", ["real", "complex"])
def test_one_chain_agrees_with_two_chains(kind, data):
    # V = X + (h/3) acc sums the homogeneous state and the Simpson
    # accumulator in one chain, so the tracks move only by rounding
    op, fs = random_family(kind)
    m, N = fs.m, fs.n_nodes
    rng = np.random.default_rng(8)
    x0, y0 = rng.standard_normal(m), rng.standard_normal(m)
    F = rng.standard_normal((N, m))
    if data == "complex":
        x0 = x0 + 1j * rng.standard_normal(m)
        F = F + 1j * rng.standard_normal((N, m))
    for a in (0, 1, 17):
        for stop in [a + K for K in range(6)] + [None]:
            got = voc.representation(fs, op, x0, y0, F, start=a, stop=stop)
            ref = two_chain_representation(fs, op, x0, y0, F, start=a,
                                           stop=stop)
            b = N - 1 if stop is None else stop
            for g, r in zip(got, ref):
                err = np.abs(g[a:b + 1] - r[a:b + 1]).max()
                assert err <= 1e-13 * np.abs(r[a:b + 1]).max(), (a, stop, err)


@pytest.mark.parametrize("case", [
    dict(start=5, stop=4), dict(start=5, stop=2), dict(stop=11),
    dict(start=12), dict(F=np.ones((10, 1))), dict(F=np.ones((11, 2))),
    dict(F=np.ones(11)), dict(x0=np.ones(2)), dict(y0=np.ones(2))])
def test_representation_rejects_bad_window_and_shapes(case):
    op = scalar_op(1.0)
    fs = nlw.fundamental_solution(op, np.linspace(0.0, 1.0, 11), h=1e-2)
    args = dict(x0=np.ones(1), y0=np.zeros(1), F=np.ones((11, 1))) | case
    with pytest.raises(ConfigurationError):
        voc.representation(fs, op, **args)
