import numpy as np
import pytest
from scipy.integrate import solve_ivp

import nonlocalwave as nlw
from nonlocalwave import ConfigurationError


def scalar_op(a, b=None):
    a_of_t = (lambda t: np.array([[a(t)]])) if callable(a) \
        else (lambda t: np.array([[float(a)]]))
    if b is None:
        return nlw.undamped_operator(a_of_t, 1)
    b_of_t = (lambda t: np.array([[b(t)]])) if callable(b) \
        else (lambda t: np.array([[float(b)]]))
    return nlw.damped_operator(a_of_t, b_of_t, 1)


def test_propagate_harmonic_quarter_period():
    U = nlw.propagate(scalar_op(1.0), 0.0, np.pi / 2, np.array([1.0, 0.0]),
                      h=1e-3)
    np.testing.assert_allclose(U, [0.0, -1.0], atol=1e-8)


def test_propagate_critically_damped():
    U = nlw.propagate(scalar_op(1.0, 2.0), 0.0, 1.0, np.array([1.0, 0.0]),
                      h=1e-3)
    assert abs(U[0] - 2.0 / np.e) < 1e-8


def test_propagate_zero_data_zero_forcing():
    U = nlw.propagate(scalar_op(1.0), 0.0, 1.0, np.zeros(2),
                      forcing=lambda t: np.zeros(1), h=1e-3)
    np.testing.assert_allclose(U, 0.0)


def test_propagate_matrix_of_columns(diag_operator):
    op, lam = diag_operator
    U = nlw.propagate(op, 0.0, 0.7, np.eye(8), h=1e-3)
    w = np.sqrt(np.maximum(lam, 1e-300))
    C = np.where(lam > 0, np.cos(w * 0.7), 1.0)
    np.testing.assert_allclose(np.diag(U[:4, :4]), C, atol=1e-9)


def test_fourth_order_convergence():
    op = scalar_op(1.0)
    u0 = np.array([1.0, 0.0])
    exact = np.array([np.cos(np.pi), -np.sin(np.pi)])
    e1 = np.abs(nlw.propagate(op, 0.0, np.pi, u0, h=0.02) - exact).max()
    e2 = np.abs(nlw.propagate(op, 0.0, np.pi, u0, h=0.01) - exact).max()
    assert e1 / e2 >= 14.0


def test_step_validated_against_spectrum():
    op = scalar_op(1e6)
    with pytest.raises(ConfigurationError):
        nlw.fundamental_solution(op, np.linspace(0, 1, 5), h=0.1)


def test_fundamental_solution_closed_forms(diag_fs, diag_operator):
    _, lam = diag_operator
    grid = diag_fs.time_grid
    w = np.sqrt(np.maximum(lam, 1.0))
    worst = 0.0
    for i in range(grid.size):
        for j in range(i + 1):
            tau = grid[i] - grid[j]
            S = np.where(lam > 0, np.sin(np.sqrt(lam) * tau) / w, tau)
            C = np.where(lam > 0, np.cos(np.sqrt(lam) * tau), 1.0)
            worst = max(worst,
                        np.abs(diag_fs.S(i, j) - np.diag(S)).max(),
                        np.abs(diag_fs.C(i, j) - np.diag(C)).max())
    assert worst < 1e-7


def test_boundary_blocks_exact(diag_fs):
    for i in range(diag_fs.n_nodes):
        assert np.all(diag_fs.S(i, i) == 0.0)
        assert np.all(diag_fs.C(i, i) == np.eye(4))
        assert np.all(diag_fs.dS(i, i) == np.eye(4))


def test_airy_type_against_independent_oracle():
    # u'' + (1+t) u = 0; S(1,0) is the solution with u(0)=0, u'(0)=1
    op = scalar_op(lambda t: 1.0 + t)
    grid = np.linspace(0.0, 1.0, 11)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    sol = solve_ivp(lambda t, y: [y[1], -(1.0 + t) * y[0]], (0.0, 1.0),
                    [0.0, 1.0], method="DOP853", rtol=1e-12, atol=1e-13)
    assert abs(fs.S(10, 0)[0, 0] - sol.y[0, -1]) < 1e-7


def _random_operator(rng, m, damped):
    lam = np.sort(rng.uniform(0.0, 9.0, m))
    sym = rng.standard_normal((m, m)) * 0.1
    sym = 0.5 * (sym + sym.T)
    freq = rng.uniform(0.5, 2.0)

    def a_of_t(t):
        return np.diag(lam) + np.sin(freq * t) * sym
    if not damped:
        return nlw.undamped_operator(a_of_t, m)
    damp = np.diag(rng.uniform(0.1, 1.0, m))

    def b_of_t(t):
        return damp + 0.2 * np.cos(freq * t) * sym
    return nlw.damped_operator(a_of_t, b_of_t, m)


@pytest.mark.parametrize("damped", [False, True])
def test_composed_table_matches_per_start_propagation(rng, damped):
    # reference: each start's identity advanced interval by interval on the
    # same substep lattice, with no products of transition maps
    op = _random_operator(rng, 4, damped)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 11))])
    grid *= 1.2 / grid[-1]
    h = 1e-2
    fs = nlw.fundamental_solution(op, grid, h=h)
    worst = 0.0
    for j in range(grid.size):
        assert np.all(fs.E(j, j) == np.eye(8))
        X = np.eye(8)
        for i in range(j + 1, grid.size):
            X = nlw.propagate(op, grid[i - 1], grid[i], X, h=h)
            worst = max(worst, np.abs(fs.E(i, j) - X).max() / np.abs(X).max())
    assert worst < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tabulation_blowup_raises_propagation_error():
    # u'' = 1e4 u: each unit interval map is finite (entries <= 1.4e45), but
    # their products overflow after about 308 / 43 ~ 7 intervals
    op = scalar_op(-1e4)
    with pytest.raises(nlw.PropagationError,
                       match="between nodes [0-9]+ and [0-9]+") as exc:
        nlw.fundamental_solution(op, np.linspace(0.0, 10.0, 11), h=1e-3)
    assert 7.0 <= exc.value.time <= 8.0
    # u'' = 1e6 u: the first interval's own map already overflows
    with pytest.raises(nlw.PropagationError, match="between nodes 0 and 1"):
        nlw.fundamental_solution(scalar_op(-1e6), np.linspace(0.0, 2.0, 3),
                                 h=1e-3)


def test_axiom_report_autonomous_diagonal(diag_fs, diag_operator):
    op, _ = diag_operator
    rep = nlw.check_axioms(diag_fs, op)
    assert rep.s1_defect < 1e-12
    for d in (rep.s2a_defect, rep.s2b_defect, rep.s2c_defect,
              rep.s3a_defect, rep.s3b_defect, rep.s4_defect,
              rep.composition_defect):
        assert d < 1e-6
    # (S0) for the harmonic block: |sin a - sin b| <= |a - b|
    assert rep.lip_s <= 1.0 + 1e-6
    assert np.isfinite(rep.lip_c)
    assert rep.sup_s <= 2.0 + 1e-6          # sup sin(sqrt(l) tau)/sqrt(l) = tau cap


def test_s4_with_equal_middle_point_is_trivial(diag_fs):
    # r = s: C(t,s)S(s,s) + S(t,s) dS(s,s) = S(t,s)
    i, k = 15, 7
    lhs = diag_fs.C(i, k) @ diag_fs.S(k, k) + diag_fs.S(i, k) @ diag_fs.dS(k, k)
    np.testing.assert_allclose(lhs, diag_fs.S(i, k), atol=1e-14)


def test_composition_defect_small(diag_fs):
    i, k, j = 20, 11, 3
    d = np.linalg.norm(diag_fs.E(i, k) @ diag_fs.E(k, j) - diag_fs.E(i, j), 2)
    assert d < 1e-10


def test_block_consistency_derivatives(diag_fs):
    # lower blocks are the time derivatives of the upper blocks, O(step^2)
    grid = diag_fs.time_grid
    dt = grid[1] - grid[0]
    j = 2
    for i in range(j + 1, diag_fs.n_nodes - 1):
        fd_c = (diag_fs.C(i + 1, j) - diag_fs.C(i - 1, j)) / (2 * dt)
        fd_s = (diag_fs.S(i + 1, j) - diag_fs.S(i - 1, j)) / (2 * dt)
        assert np.abs(fd_c - diag_fs.dC(i, j)).max() < 2.0 * dt ** 2 * 9.0
        assert np.abs(fd_s - diag_fs.dS(i, j)).max() < 2.0 * dt ** 2 * 9.0


def test_energy_conservation_autonomous(diag_operator, rng):
    op, lam = diag_operator
    A = np.diag(lam)
    U = rng.standard_normal(8)
    energy0 = U[4:] @ U[4:] + U[:4] @ A @ U[:4]
    V = nlw.propagate(op, 0.0, 2.0, U, h=1e-3)
    energy1 = V[4:] @ V[4:] + V[:4] @ A @ V[:4]
    assert abs(energy1 - energy0) < 1e-9 * max(1.0, energy0)


def test_adjoint_autonomous_symmetric(diag_fs, diag_operator):
    op, _ = diag_operator
    assert nlw.adjoint_check(diag_fs, op) < 1e-8


def test_adjoint_time_dependent_scalar():
    op = scalar_op(lambda t: 1.0 + t)
    fs = nlw.fundamental_solution(op, np.linspace(0, 1, 11), h=1e-3)
    assert nlw.adjoint_check(fs, op) < 1e-6


def test_adjoint_trivial_diagonal_pair():
    op = scalar_op(lambda t: 1.0 + t)
    fs = nlw.fundamental_solution(op, np.linspace(0, 1, 11), h=1e-3)
    fs_r = nlw.fundamental_solution(
        nlw.reversed_operator(op, 1.0), fs.time_grid, h=1e-3)
    # t = s: both sides are the zero block
    assert np.all(fs.S(4, 4) == 0.0) and np.all(fs_r.S(6, 6) == 0.0)
    assert nlw.adjoint_defect(fs, fs_r) < 1e-6


def test_damped_family_with_zero_damping_matches_undamped(diag_operator):
    op, lam = diag_operator
    zero = lambda t: np.zeros((4, 4))
    opd = nlw.damped_operator(op.a_of_t, zero, 4)
    grid = np.linspace(0.0, 1.0, 11)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    fsd = nlw.fundamental_solution(opd, grid, h=1e-3)
    worst = max(np.abs(fs.blocks - fsd.blocks).max(), 0.0)
    assert worst < 1e-9


def test_damped_axioms(diag_operator):
    op, _ = diag_operator
    opd = nlw.damped_operator(op.a_of_t, lambda t: 0.5 * np.eye(4), 4)
    fs = nlw.fundamental_solution(opd, np.linspace(0, 1, 11), h=1e-3)
    rep = nlw.check_axioms(fs, opd)
    assert rep.s1_defect < 1e-12
    assert rep.s2a_defect < 1e-5 and rep.s2b_defect < 1e-5
    assert rep.s3b_defect is None
    assert rep.s4_defect < 1e-6 and rep.composition_defect < 1e-6


def test_dump_load_round_trip(tmp_path, diag_fs):
    path = tmp_path / "fs.bin"
    nlw.dump_fs(diag_fs, path)
    back = nlw.load_fs(path)
    assert back.kind == diag_fs.kind and back.m == diag_fs.m
    np.testing.assert_array_equal(back.time_grid, diag_fs.time_grid)
    np.testing.assert_array_equal(back.blocks, diag_fs.blocks)
    # byte determinism of the dump itself
    path2 = tmp_path / "fs2.bin"
    nlw.dump_fs(diag_fs, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_foreign_file(tmp_path, diag_fs):
    good = tmp_path / "fs.bin"
    nlw.dump_fs(diag_fs, good)
    raw = good.read_bytes()
    p = tmp_path / "junk.bin"
    # foreign bytes, truncated header, truncated blocks, trailing bytes
    for junk in (b"not a dump", raw[:12], raw[:-8], raw + b"\0"):
        p.write_bytes(junk)
        with pytest.raises(ConfigurationError):
            nlw.load_fs(p)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_propagation_failure_carries_position():
    op = scalar_op(lambda t: -30.0)   # exponential blow-up
    with pytest.raises(nlw.PropagationError):
        nlw.propagate(op, 0.0, 300.0, np.array([1e300, 1e300]), h=0.1)
