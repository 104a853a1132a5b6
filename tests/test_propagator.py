import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import nonlocalwave as nlw
from nonlocalwave import ConfigurationError
from nonlocalwave import forms, propagator
from nonlocalwave.propagator import _log_growth_bound, _next_row, _span


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


def dense_rows(fs):
    """Every row of the table as the pair-storing fill wrote it: one
    (P, 2m, 2m) array, row j filled with Phi_j times row j - 1."""
    n2, N = 2 * fs.m, fs.n_nodes
    start = [i * (i + 1) // 2 for i in range(N)]
    blocks = np.empty((start[-1] + N, n2, n2))
    blocks[0] = np.eye(n2)
    for j in range(1, N):
        phi = fs.E(j, j - 1)
        row = blocks[start[j]:start[j] + j + 1]
        np.matmul(phi, blocks[start[j - 1]:start[j - 1] + j - 1],
                  out=row[:j - 1])
        row[j - 1] = phi
        row[j] = np.eye(n2)
    return blocks, [blocks[s:s + i + 1] for i, s in enumerate(start)]


def dense_row_integrals(fs):
    """int_0^{t_i} ||S(t_i, s)|| ds for every row i >= 1, from the 2-norms
    of every stored pair of the dense table."""
    m = fs.m
    blocks, _ = dense_rows(fs)
    norms = np.linalg.norm(blocks[:, :m, m:], 2, axis=(1, 2))
    return [float(nlw.quadrature.integrate(norms[i * (i + 1) // 2:][:i + 1],
                                           fs.time_grid[:i + 1]))
            for i in range(1, fs.n_nodes)]


@pytest.mark.parametrize("m", [1, 2, 4, 16])
@pytest.mark.parametrize("damped", [False, True])
def test_rows_and_bounds_match_dense_table(rng, damped, m):
    op = _random_operator(rng, m, damped)
    fs = nlw.fundamental_solution(op, np.linspace(0.0, 1.2, 10), h=1e-2)
    N, n2 = fs.n_nodes, 2 * m
    blocks, ref = dense_rows(fs)
    assert fs.blocks.shape == (N, n2, n2)
    assert fs.blocks.nbytes == N * n2 ** 2 * 8
    rows = [fs.row(i) for i in range(N)]
    for i in list(range(N)) + list(rng.permutation(N)):
        np.testing.assert_array_equal(fs.row(i), ref[i])
        for j in range(i + 1):
            np.testing.assert_array_equal(fs.E(i, j), ref[i][j])
    # every row is a new read-only array
    assert len({id(r) for r in rows}) == N
    assert not any(r.flags.writeable for r in rows)
    for i, j in ((2, 3), (2, -1), (N, 0)):
        with pytest.raises(ConfigurationError):
            fs.E(i, j)
    # the bounds as the pair-storing table computed them
    first = np.array([r[0] for r in ref])
    assert fs.first_column_bounds() == tuple(
        float(np.linalg.norm(first[:, :m, c], 2, axis=(1, 2)).max())
        for c in (slice(None, m), slice(m, None)))
    assert fs.duhamel_bound() == max(dense_row_integrals(fs))
    norms = np.linalg.norm(blocks[:, :m, m:], 2, axis=(1, 2))
    assert fs.sup_norms()["S"] == float(norms.max())


def test_row_rejects_an_index_outside_the_grid():
    fs = nlw.fundamental_solution(scalar_op(1.0), np.linspace(0.0, 1.0, 6),
                                  h=1e-2)
    _, ref = dense_rows(fs)
    for i in (-1, fs.n_nodes):
        with pytest.raises(ConfigurationError, match="need 0 <= i < 6"):
            fs.row(i)
    # a rejected index leaves the kept row alone
    np.testing.assert_array_equal(fs.row(3), ref[3])


NAN, INF = float("nan"), float("inf")


def _unit_setup():
    op = scalar_op(1.0)
    fs = nlw.fundamental_solution(op, np.linspace(0.0, 1.0, 5), h=1e-2)
    p = nlw.LinearProblem(op, np.ones(1), np.zeros(1),
                          lambda t: np.array([np.cos(t)]), 1.0)
    return op, fs, p


@pytest.mark.parametrize("call", [
    lambda op, fs, p: nlw.propagate(op, 0.0, 1.0, np.ones(2), h=-1.0),
    lambda op, fs, p: nlw.propagate(op, 0.0, 1.0, np.ones(2), h=0.0),
    lambda op, fs, p: nlw.propagate(op, 0.0, 1.0, np.ones(2), h=NAN),
    lambda op, fs, p: nlw.propagate(op, 0.0, 1.0, np.ones(2), h=INF),
    lambda op, fs, p: nlw.propagate(op, 0.0, NAN, np.ones(2)),
    lambda op, fs, p: nlw.propagate(op, -INF, 0.0, np.ones(2)),
    lambda op, fs, p: _span(op, 0.0, INF, np.ones(2), 1e-2),
    lambda op, fs, p: nlw.direct_integrate(p, NAN),
    lambda op, fs, p: nlw.direct_integrate(p, 0.0),
    lambda op, fs, p: nlw.fundamental_solution(op, [0.0, NAN, 1.0]),
    lambda op, fs, p: nlw.fundamental_solution(op, [0.0, 0.5, INF]),
    lambda op, fs, p: nlw.fundamental_solution(op, [0.0, 1.0], h=NAN),
    lambda op, fs, p: nlw.fundamental_solution(op, [0.0, 1.0], h=-1.0),
    lambda op, fs, p: nlw.check_axioms(fs, op, fd_delta=NAN),
    lambda op, fs, p: fs.node_index(NAN),
    lambda op, fs, p: nlw.solve(p, fs, [0.0, NAN]),
    lambda op, fs, p: nlw.Trajectory([NAN], np.zeros((1, 1)),
                                     np.zeros((1, 1))),
    lambda op, fs, p: nlw.Trajectory([0.0, NAN], np.zeros((2, 1)),
                                     np.zeros((2, 1))),
    lambda op, fs, p: nlw.LinearProblem(op, np.ones(1), np.ones(1), None,
                                        NAN),
    lambda op, fs, p: nlw.LinearProblem(op, np.ones(1), np.ones(1), None,
                                        INF),
], ids=["propagate-h-negative", "propagate-h-zero", "propagate-h-nan",
        "propagate-h-inf", "propagate-t-nan", "propagate-s-inf",
        "span-t-inf", "direct-h-nan", "direct-h-zero", "table-grid-nan",
        "table-grid-inf", "table-h-nan", "table-h-negative", "axioms-delta-nan",
        "node-index-nan", "solve-grid-nan", "trajectory-one-nan-node",
        "trajectory-grid-nan", "problem-horizon-nan", "problem-horizon-inf"])
def test_non_finite_and_non_positive_steps_and_times_are_rejected(call):
    op, fs, p = _unit_setup()
    with pytest.raises(ConfigurationError):
        call(op, fs, p)


def growing_stiffness_table(m, damped):
    """a(t) = lam e^{3t}: the row integrals of ||S|| peak at row 9 of 12."""
    lam = np.diag(np.linspace(1.0, 3.0, m))
    op = nlw.undamped_operator(lambda t: lam * np.exp(3.0 * t), m)
    if damped:
        op = nlw.damped_operator(op.a_of_t, lambda t: 0.1 * np.eye(m), m)
    return nlw.fundamental_solution(op, np.linspace(0.0, 1.2, 13), h=1e-2)


def table_from_maps(grid, maps):
    """An undamped-kind table on ``grid`` whose interval maps are ``maps``,
    built through the constructor, so it keeps no row."""
    n2 = maps.shape[-1]
    blocks = np.zeros((len(grid), n2, n2))
    blocks[1:] = maps
    blocks.flags.writeable = False
    return nlw.FundamentalSolution(grid, n2 // 2, "undamped", blocks, 1e-2)


def tied_rows_table(m):
    """S(t_i, s) of rows 2 and 4 is x at s_1 (weight 4h/3 in both rows) and
    zero elsewhere, so their integrals are the same float; the last row has
    half of it."""
    eye, zero = np.eye(m), np.zeros((m, m))
    x = np.diag(np.linspace(1.0, 2.0, m))
    maps = np.array([np.block([[eye, zero], [eye, zero]]),   # S(1, 0) = 0
                     np.block([[zero, x], [eye, zero]]),     # S(2, 0) = 0
                     np.eye(2 * m), np.eye(2 * m), 0.5 * np.eye(2 * m)])
    return table_from_maps(np.linspace(0.0, 0.5, 6), maps)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("family", ["interior", "interior-damped", "tie",
                                    "rebuilt-interior", "rebuilt-random"])
def test_pruned_duhamel_bound_matches_dense_table(rng, family, m):
    if family == "tie":
        fs = tied_rows_table(m)
    elif family == "rebuilt-random":
        fs = nlw.fundamental_solution(_random_operator(rng, m, True),
                                      np.linspace(0.0, 1.2, 10), h=1e-2)
    else:
        fs = growing_stiffness_table(m, damped=family.endswith("damped"))
    if family.startswith("rebuilt"):
        fs = nlw.FundamentalSolution(fs.time_grid, m, fs.kind, fs.blocks,
                                     fs.h)
    ints = dense_row_integrals(fs)
    best = max(ints)
    if "interior" in family:
        assert ints.index(best) + 1 < fs.n_nodes - 1
        assert ints[-1] < best
    if family == "tie":
        assert [i + 1 for i, v in enumerate(ints) if v == best] == [2, 4]
        assert ints[-1] < best
    assert fs.duhamel_bound() == best


def count_exact_norm_blocks(monkeypatch):
    """Count the blocks handed to 2-norms from here on."""
    count = [0]
    norm = np.linalg.norm

    def counting(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            count[0] += int(np.prod(np.shape(x)[:-2]))
        return norm(x, ord, axis, keepdims)
    monkeypatch.setattr(np.linalg, "norm", counting)
    return count


@pytest.mark.parametrize("name", ["population", "undamped_neumann"])
def test_duhamel_bound_takes_at_most_one_row_of_exact_norms(
        tmp_path, monkeypatch, name):
    # a fresh table of a shipped scenario reads its mode stack, with no
    # exact norm; the loaded one has none, so its bound is the dense
    # sweep's, and the two implementations must give the same float
    rz = nlw.realize(nlw.builtin_scenarios()[name], m=32)
    fs, N = rz.fs, rz.fs.n_nodes
    count = count_exact_norm_blocks(monkeypatch)
    bound = fs.duhamel_bound()
    assert fs.modes is not None and count[0] == 0
    monkeypatch.undo()
    path = tmp_path / "fs.bin"
    nlw.dump_fs(fs, path)
    loaded = nlw.load_fs(path)
    path.unlink()
    assert loaded.modes is None
    count = count_exact_norm_blocks(monkeypatch)
    assert loaded.duhamel_bound() == bound
    assert 0 < count[0] <= N


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", ["population", "undamped_neumann"])
def test_duhamel_bound_is_the_dense_tables_float(name, m):
    # at m = 1 the sweep carries whole rows: 2 x 1 right halves would move
    # M_{2,T} by 2 ulp on these 81-node tables
    fs = nlw.realize(nlw.builtin_scenarios()[name], m=m).fs
    assert fs.n_nodes == 81
    assert fs.duhamel_bound() == max(dense_row_integrals(fs))


def test_duhamel_bound_ignores_a_floor_above_every_row(monkeypatch):
    # a floor above the maximum, as a backward product far off the forward
    # one would give, must not be returned or prune the deciding row
    fs = growing_stiffness_table(4, damped=False)
    best = max(dense_row_integrals(fs))
    monkeypatch.setattr(nlw.FundamentalSolution, "_last_row_floor",
                        lambda self: 2.0 * best)
    assert fs.duhamel_bound() == best


@pytest.mark.parametrize("name", ["population", "undamped_neumann"])
def test_cold_table_makes_no_row(tmp_path, monkeypatch, name):
    def unreachable(phi, prev):
        raise AssertionError("a row was made")
    monkeypatch.setattr(propagator, "_next_row", unreachable)
    fs = nlw.realize(nlw.builtin_scenarios()[name], m=32).fs
    assert fs.blocks.shape == (81, 64, 64)
    assert np.all(np.isfinite(fs.blocks))
    # nor does a dump, or a load, whose certificate (D = I) also passes
    path = tmp_path / "fs.bin"
    nlw.dump_fs(fs, path)
    assert path.stat().st_size == 8 + 17 + 8 * (81 + 80 * 64 ** 2) + 32
    np.testing.assert_array_equal(nlw.load_fs(path).blocks, fs.blocks)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["undamped", "damped", "contractive"])
def test_growth_bound_covers_every_block(seed, family):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(4, 12))
    if family == "contractive":
        # overdamped modes on unit intervals
        lam = np.diag(rng.uniform(2.0, 6.0, m))
        damp = np.diag(rng.uniform(4.0, 8.0, m))
        op = nlw.damped_operator(lambda t: lam, lambda t: damp, m)
        grid = np.linspace(0.0, n - 1.0, n)
    else:
        op = _random_operator(rng, m, family == "damped")
        grid = np.linspace(0.0, rng.uniform(1.0, 4.0), n)
    fs = nlw.fundamental_solution(op, grid, h=1e-2)
    phis, a0 = fs.blocks[1:], op.a_of_t(grid[0])
    bound = _log_growth_bound(phis, a0)
    assert bound < propagator.OVERFLOW_LOG_LIMIT
    blocks, _ = dense_rows(fs)
    assert np.all(np.isfinite(blocks))
    assert np.abs(blocks).max() <= np.exp(bound)
    # the bound on all maps covers every run of them, each block's factors
    for i in range(len(phis)):
        for j in range(i + 1, len(phis) + 1):
            assert _log_growth_bound(phis[i:j], a0) <= bound
    if family == "contractive":
        # maps that shrink in D's norm, which the clamp at 1 keeps from
        # lowering the bound on the runs they are not part of
        d = np.sqrt(1.0 + np.abs(np.diag(a0)))
        d = np.concatenate([d, np.ones(m)])
        scaled = np.linalg.norm(phis * (d[:, None] / d), 2, axis=(1, 2))
        assert scaled.min() < 1.0


def test_failed_certificate_sweeps_the_rows_and_keeps_the_maps(monkeypatch):
    # u'' = 1e4 u on [0, 4]: the blocks grow to about e^400, past the
    # certificate's limit but finite
    op = scalar_op(-1e4)
    grid = np.linspace(0.0, 4.0, 9)
    made = [0]
    next_row = propagator._next_row

    def counting(phi, prev):
        made[0] += 1
        return next_row(phi, prev)
    monkeypatch.setattr(propagator, "_next_row", counting)
    fs = nlw.fundamental_solution(op, grid, h=1e-3)
    assert made[0] == grid.size - 1
    assert _log_growth_bound(fs.blocks[1:], op.a_of_t(0.0)) \
        > propagator.OVERFLOW_LOG_LIMIT
    blocks, ref = dense_rows(fs)
    assert np.all(np.isfinite(blocks)) and np.abs(blocks).max() > 1e150
    for i, row in enumerate(ref[1:], 1):
        np.testing.assert_array_equal(fs.blocks[i], row[i - 1])


def reference_span(op, t0, t1, X, h, forcing=None, check_every_step=True):
    """The out-of-place RK4 substep loop that ``_span`` replaced."""
    if t1 == t0:
        return X
    n = max(1, int(np.ceil(abs(t1 - t0) / h - 1e-12)))
    dt = (t1 - t0) / n
    m = op.dim

    def mats(t):
        A = np.asarray(op.a_of_t(t))
        B = None if op.b_of_t is None else np.asarray(op.b_of_t(t))
        return A, B

    def rhs(A, B, X, t):
        bottom = -(A @ X[:m])
        if B is not None:
            bottom = bottom - B @ X[m:]
        if forcing is not None:
            f = forcing(t)
            bottom = bottom + (f if X.ndim == 1 else f[:, None])
        return np.concatenate([X[m:], bottom], axis=0)

    t_end = end = None
    for k in range(n):
        t = t0 + k * dt
        A0, B0 = end if t == t_end else mats(t)
        Am, Bm = mats(t + 0.5 * dt)
        t_end, end = t + dt, mats(t + dt)
        A1, B1 = end
        k1 = rhs(A0, B0, X, t)
        k2 = rhs(Am, Bm, X + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = rhs(Am, Bm, X + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(A1, B1, X + dt * k3, t + dt)
        X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if check_every_step and not np.all(np.isfinite(X)):
            raise nlw.PropagationError(
                f"non-finite state at step {k} (t ~ {t0 + (k + 1) * dt:.6g})",
                time=t0 + (k + 1) * dt, step_index=k)
    if not np.all(np.isfinite(X)):
        raise nlw.PropagationError(f"non-finite state reached at t={t1:.6g}",
                                   time=t1)
    return X


@pytest.mark.parametrize("damped", [False, True])
@pytest.mark.parametrize("width", [None, 1, 3, 8])
@pytest.mark.parametrize("case", ["plain", "forced", "complex",
                                  "complex-forcing", "backward"])
def test_span_matches_the_out_of_place_loop(rng, damped, width, case):
    m = 4
    op = _random_operator(rng, m, damped)
    shape = (2 * m,) if width is None else (2 * m, width)
    X = rng.standard_normal(shape)
    if case == "complex":
        X = X + 1j * rng.standard_normal(shape)
    amp = rng.standard_normal(m)
    if case == "complex-forcing":
        amp = amp + 1j * rng.standard_normal(m)
    forcing = (lambda t: amp * np.cos(3.0 * t)) if "forc" in case else None
    t0, t1 = (0.9, 0.2) if case == "backward" else (0.2, 0.9)
    before = X.copy()
    got = _span(op, t0, t1, X, 0.013, forcing=forcing)
    want = reference_span(op, t0, t1, X, 0.013, forcing=forcing)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(X, before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("check_every_step", [True, False])
def test_span_blowup_error_is_unchanged(check_every_step):
    op = scalar_op(-1e4)
    X = np.array([1e300, 1e300])
    errors = []
    for span in (_span, reference_span):
        with pytest.raises(nlw.PropagationError) as exc:
            span(op, 0.0, 1.0, X, 0.01, check_every_step=check_every_step)
        errors.append(exc.value)
    got, want = errors
    assert str(got) == str(want)
    assert (got.step_index, got.time) == (want.step_index, want.time)
    assert (got.step_index is None) == (not check_every_step)


def test_table_bytes_counts_maps_working_rows_and_audit_rows():
    block = 8 * 64 ** 2
    assert propagator.table_bytes(32, 81) == 3 * 81 * block
    assert propagator.table_bytes(32, 11, audit=True) == (33 + 66) * block
    # --m 512 on the shipped 81-node grid: 0.68 GiB of maps, 0.68 GiB a row
    assert propagator.table_bytes(512, 81) == 243 * 8 * 1024 ** 2


def test_memory_guard_rejects_before_anything_is_made(monkeypatch, tmp_path):
    def unreachable(t):
        raise AssertionError("A(t) assembled")
    monkeypatch.setattr(propagator, "memory_budget",
                        lambda: propagator.table_bytes(512, 81) - 1)
    with pytest.raises(ConfigurationError, match="MemAvailable"):
        nlw.fundamental_solution(nlw.undamped_operator(unreachable, 512),
                                 np.linspace(0.0, 2.0, 81))
    # a table at the budget passes; its audit and its dump do not
    op = scalar_op(1.0)
    grid = np.linspace(0.0, 1.0, 11)
    monkeypatch.setattr(propagator, "memory_budget",
                        lambda: propagator.table_bytes(1, 11))
    fs = nlw.fundamental_solution(op, grid, h=1e-2)
    with pytest.raises(ConfigurationError, match="MemAvailable"):
        nlw.check_axioms(fs, op)
    with pytest.raises(ConfigurationError, match="MemAvailable"):
        propagator.adjoint_defect(fs, fs)
    nlw.dump_fs(fs, tmp_path / "fs.bin")
    monkeypatch.setattr(propagator, "memory_budget",
                        lambda: propagator.table_bytes(1, 11) - 1)
    with pytest.raises(ConfigurationError, match="MemAvailable"):
        nlw.load_fs(tmp_path / "fs.bin")


def test_memory_budget_reads_mem_available(monkeypatch, tmp_path):
    info = tmp_path / "meminfo"
    info.write_text("MemTotal:  4000 kB\nMemAvailable:   1000 kB\n")
    monkeypatch.setattr(propagator, "_MEMINFO", str(info))
    assert propagator.memory_budget() == int(
        propagator.MEMORY_SHARE * 1000 * 1024)
    info.write_text("MemTotal:  4000 kB\n")
    assert propagator.memory_budget() is None
    monkeypatch.setattr(propagator, "_MEMINFO", str(tmp_path / "missing"))
    assert propagator.memory_budget() is None


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
    # the last interval's own map overflows too, but the row of interval
    # 7-8 overflows first and is the one named
    with pytest.raises(nlw.PropagationError,
                       match="between nodes 7 and 8 .*non-finite blocks"):
        nlw.fundamental_solution(
            scalar_op(lambda t: -1e4 if t < 8.5 else -1e6),
            np.linspace(0.0, 10.0, 11), h=1e-3)


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


HEADER_BYTES = 8 + struct.calcsize("<BIId")


def fs_header(kind, m, n, h):
    """Magic plus header fields of a dump_fs file."""
    return b"NLWFS002" + struct.pack("<BIId", kind, m, n, h)


def signed(content):
    """A dump_fs file's bytes: ``content`` and its sha256 digest."""
    return content + hashlib.sha256(content).digest()


SMALL_SIZE = HEADER_BYTES + 8 * (11 + 10 * 4 ** 2) + 32   # m = 2, 11 nodes
SMALL_H = HEADER_BYTES - 8                                  # offset of h
SMALL_PHI5 = HEADER_BYTES + 8 * (11 + 4 * 4 ** 2)           # Phi_5's first entry


@pytest.fixture(scope="module")
def small_dump(tmp_path_factory):
    """The dump of an m = 2 table on 11 nodes, and a directory."""
    op = nlw.undamped_operator(lambda t: np.diag([1.0, 4.0]), 2)
    fs = nlw.fundamental_solution(op, np.linspace(0.0, 1.0, 11), h=1e-2)
    where = tmp_path_factory.mktemp("small")
    nlw.dump_fs(fs, where / "fs.bin")
    raw = (where / "fs.bin").read_bytes()
    assert len(raw) == SMALL_SIZE
    return raw, where


def corrupt(raw, edit):
    kind, *args = edit
    if kind == "xor":        # one byte changed
        pos, mask = args
        return raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]
    if kind == "set":        # bytes written over from an offset
        pos, data = args
        return raw[:pos] + data + raw[pos + len(data):]
    if kind == "cut":
        return raw[:args[0]]
    if kind == "append":
        return raw + args[0]
    return args[0]           # "file": foreign bytes


# any one byte changed, any truncation and any appended bytes; the
# examples are foreign bytes, a truncated header, truncated maps, a
# trailing byte; a kind byte outside {0, 1}, h = nan and h < 0, a grid
# that does not increase; headers with m = 0 or n < 2; the lowest bit of
# an entry of Phi_5 flipped (a table that a tolerance on rows accepted);
# 0.5 over the last 8 bytes; and a body of zeros
@settings(max_examples=300, deadline=None)
@given(edit=st.one_of(
    st.tuples(st.just("xor"), st.integers(0, SMALL_SIZE - 1),
              st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, SMALL_SIZE - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64))))
@example(edit=("file", b"not a dump"))
@example(edit=("cut", 12))
@example(edit=("cut", SMALL_SIZE - 8))
@example(edit=("append", b"\0"))
@example(edit=("xor", 8, 7))
@example(edit=("set", SMALL_H, struct.pack("<d", np.nan)))
@example(edit=("set", SMALL_H, struct.pack("<d", -1.0)))
@example(edit=("set", HEADER_BYTES, struct.pack("<d", 5.0)))
@example(edit=("file", fs_header(0, 0, 0, 1e-3)))
@example(edit=("file", fs_header(0, 4, 0, 1e-3)))
@example(edit=("file", signed(fs_header(0, 4, 1, 1e-3) + bytes(8))))
@example(edit=("xor", SMALL_PHI5, 1))
@example(edit=("set", SMALL_SIZE - 8, struct.pack("<d", 0.5)))
@example(edit=("set", HEADER_BYTES + 8 * 11,
               bytes(SMALL_SIZE - HEADER_BYTES - 8 * 11)))
def test_load_rejects_any_corruption(small_dump, edit):
    raw, where = small_dump
    path = where / "corrupt.bin"
    path.write_bytes(corrupt(raw, edit))
    with pytest.raises(ConfigurationError):
        nlw.load_fs(path)


def test_load_names_an_older_format(small_dump):
    raw, where = small_dump
    path = where / "v1.bin"
    path.write_bytes(b"NLWFS001" + raw[8:])
    with pytest.raises(ConfigurationError, match="older"):
        nlw.load_fs(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_load_rejects_maps_whose_products_overflow(tmp_path):
    # finite maps and a valid digest, but Phi_2 Phi_1 = 1e400 I: the load's
    # certificate fails and its row sweep names the interval
    maps = np.tile(1e200 * np.eye(2), (3, 1, 1))
    path = tmp_path / "fs.bin"
    path.write_bytes(signed(fs_header(0, 1, 4, 1e-3)
                            + np.linspace(0.0, 1.0, 4).astype("<f8").tobytes()
                            + maps.astype("<f8").tobytes()))
    with pytest.raises(ConfigurationError, match="between nodes 1 and 2"):
        nlw.load_fs(path)


def increasing(n):
    return st.lists(st.floats(1e-3, 1.0), min_size=n,
                    max_size=n).map(np.cumsum)


# kind bytes 0 and 1 are drawn often enough that sound files occur
@settings(max_examples=200, deadline=None)
@given(kind=st.one_of(st.integers(0, 1), st.integers(0, 255)),
       m=st.integers(0, 3), n=st.integers(0, 5),
       h=st.one_of(st.floats(), st.sampled_from([1e-3, np.nan, np.inf, -1.0])),
       slack=st.sampled_from([0, 0, 0, -8, 8]), data=st.data())
def test_load_fs_validates_every_header(tmp_path_factory, kind, m, n, h,
                                        slack, data):
    # a dump with random header fields either loads as a table with sound
    # invariants or fails with ConfigurationError, never another exception;
    # the body is the grid, N - 1 identity maps Phi_j = I and the digest
    grid = np.asarray(data.draw(st.one_of(
        increasing(n), st.lists(st.floats(), min_size=n, max_size=n))),
        dtype=float)
    raw = signed(fs_header(kind, m, n, h) + grid.astype("<f8").tobytes()
                 + np.tile(np.eye(2 * m), (max(n - 1, 0), 1, 1))
                 .astype("<f8").tobytes())
    path = tmp_path_factory.mktemp("fuzz") / "fs.bin"
    path.write_bytes((raw + bytes(max(slack, 0)))[:len(raw) + slack])
    sound = (kind <= 1 and m >= 1 and n >= 2 and np.isfinite(h) and h > 0
             and slack == 0 and np.all(np.isfinite(grid))
             and np.all(np.diff(grid) > 0))
    if not sound:
        with pytest.raises(ConfigurationError):
            nlw.load_fs(path)
        return
    fs = nlw.load_fs(path)
    assert fs.kind == ("damped" if kind else "undamped")
    assert (fs.m, fs.n_nodes, fs.h) == (m, n, h)
    np.testing.assert_array_equal(fs.time_grid, grid)
    assert fs.blocks.shape == (n, 2 * m, 2 * m)
    assert np.all(fs.blocks[1:] == np.eye(2 * m))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_propagation_failure_carries_position():
    op = scalar_op(lambda t: -30.0)   # exponential blow-up
    with pytest.raises(nlw.PropagationError):
        nlw.propagate(op, 0.0, 300.0, np.array([1e300, 1e300]), h=0.1)


def test_tables_are_read_only(tmp_path, diag_fs):
    with pytest.raises(ValueError):
        diag_fs.blocks[0, 0, 0] = 1.0
    path = tmp_path / "fs.bin"
    nlw.dump_fs(diag_fs, path)
    back = nlw.load_fs(path)
    with pytest.raises(ValueError):
        back.blocks[-1] += 1.0
    # a dump of the loaded (read-only) table is byte-identical
    again = tmp_path / "again.bin"
    nlw.dump_fs(back, again)
    assert again.read_bytes() == path.read_bytes()


def per_pair_axioms(fs, op, d=5e-5):
    """Composition, (S4), (S2)(a) and its C analogue, one pair at a time."""
    grid, m, N = fs.time_grid, fs.m, fs.n_nodes
    comp = s4 = s2a = s3a = 0.0
    for i in range(N):
        for k in range(i + 1):
            for j in range(k + 1):
                comp = max(comp, np.linalg.norm(
                    fs.E(i, k) @ fs.E(k, j) - fs.E(i, j), 2))
                s4 = max(s4, np.linalg.norm(
                    fs.C(i, k) @ fs.S(k, j) + fs.S(i, k) @ fs.dS(k, j)
                    - fs.S(i, j), 2))
    for i in range(N):
        t = grid[i]
        A = np.asarray(op.a_of_t(t))
        for j in range(i + 1):
            E0 = fs.E(i, j)
            Ep = _span(op, t, t + d, E0.copy(), d)
            Em = _span(op, t, t - d, E0.copy(), d)
            dd = (Ep + Em - 2.0 * E0) / d ** 2
            res_s = dd[:m, m:] + A @ E0[:m, m:]
            res_c = dd[:m, :m] + A @ E0[:m, :m]
            if op.b_of_t is not None:
                B = np.asarray(op.b_of_t(t))
                res_s = res_s + B @ E0[m:, m:]
                res_c = res_c + B @ E0[m:, :m]
            s2a = max(s2a, np.linalg.norm(res_s, 2))
            s3a = max(s3a, np.linalg.norm(res_c, 2))
    return comp, s4, s2a, s3a


def per_pair_rest(fs, op, d):
    """(S1), the Lipschitz constants, (S2)(b)/(S3)(b) and (S2)(c), one pair
    (or one node) at a time."""
    grid, m, N = fs.time_grid, fs.m, fs.n_nodes
    eye = np.eye(m)
    damped = op.b_of_t is not None
    out = dict(s1=0.0, lip_s=0.0, lip_c=0.0, s2b=0.0, s3b=0.0, s2c=0.0)
    for i in range(N):
        out["s1"] = max(out["s1"], np.linalg.norm(fs.S(i, i), 2),
                        np.linalg.norm(fs.C(i, i) - eye, 2),
                        np.linalg.norm(fs.dS(i, i) - eye, 2),
                        np.linalg.norm(fs.dC(i, i), 2))
    for j in range(N - 1):
        for i in range(j, N - 1):
            dt = grid[i + 1] - grid[i]
            out["lip_s"] = max(out["lip_s"], np.linalg.norm(
                fs.S(i + 1, j) - fs.S(i, j), 2) / dt)
            out["lip_c"] = max(out["lip_c"], np.linalg.norm(
                fs.C(i + 1, j) - fs.C(i, j), 2) / dt)
    for j in range(N):
        s = grid[j]
        phi_p = _span(op, s + d, s, np.eye(2 * m), d)
        phi_m = _span(op, s - d, s, np.eye(2 * m), d)
        phi_m2 = _span(op, s - 2 * d, s, np.eye(2 * m), d)
        A = np.asarray(op.a_of_t(s))
        if damped:
            B = np.asarray(op.b_of_t(s))
            G = np.block([[np.zeros((m, m)), eye], [-A, -B]])
        for i in range(j, N):
            E0 = fs.E(i, j)
            Ep, Em = E0 @ phi_p, E0 @ phi_m
            if damped:
                back = (Ep[:m] - Em[:m]) / (2 * d) + E0[:m] @ G
                out["s2b"] = max(out["s2b"], np.linalg.norm(back, 2))
            else:
                dd = (Ep + Em - 2.0 * E0) / d ** 2
                out["s2b"] = max(out["s2b"], np.linalg.norm(
                    dd[:m, m:] + E0[:m, m:] @ A, 2))
                out["s3b"] = max(out["s3b"], np.linalg.norm(
                    dd[m:, m:] + E0[m:, m:] @ A, 2))
        est = (3.0 * eye - 4.0 * phi_m[m:, m:] + phi_m2[m:, m:]) / (2.0 * d)
        if damped:
            est = est - B
        out["s2c"] = max(out["s2c"], np.linalg.norm(est, 2))
    return out


def per_pair_adjoint(fs, fs_r):
    N = fs.n_nodes
    return max(np.linalg.norm(fs.S(i, j).conj().T
                              - fs_r.S(N - 1 - j, N - 1 - i), 2)
               for i in range(N) for j in range(i + 1))


@pytest.mark.parametrize("damped", [False, True])
def test_batched_axioms_match_per_pair_loop(damped):
    rng = np.random.default_rng(8)
    m = 3
    base = np.diag(rng.uniform(0.5, 4.0, m))
    sym = 0.1 * rng.standard_normal((m, m))
    a_of_t = lambda t: base + np.cos(t) * (sym + sym.T)
    op = (nlw.damped_operator(a_of_t, lambda t: (0.2 + 0.1 * t) * np.eye(m), m)
          if damped else nlw.undamped_operator(a_of_t, m))
    fs = nlw.fundamental_solution(op, np.linspace(0.0, 1.0, 9), h=1e-3)
    # at m = 3 the default delta's s2a/s3a are rounding amplified by
    # 1/delta^2 (the two orders of summation differ by up to 60%); a larger
    # delta makes the finite-difference defect, not rounding, the measured
    # quantity
    d = 2e-3
    rep = nlw.check_axioms(fs, op, fd_delta=d)
    comp, s4, s2a, s3a = per_pair_axioms(fs, op, d)
    assert abs(rep.composition_defect - comp) < 1e-13
    assert abs(rep.s4_defect - s4) < 1e-13
    assert rep.s2a_defect == pytest.approx(s2a, rel=1e-5)
    assert rep.s3a_defect == pytest.approx(s3a, rel=1e-5)
    rest = per_pair_rest(fs, op, d)
    assert abs(rep.s1_defect - rest["s1"]) < 1e-13
    assert abs(rep.lip_s - rest["lip_s"]) < 1e-13
    assert abs(rep.lip_c - rest["lip_c"]) < 1e-13
    assert rep.s2b_defect == pytest.approx(rest["s2b"], rel=1e-5)
    assert rep.s2c_defect == pytest.approx(rest["s2c"], rel=1e-5)
    if damped:
        assert rep.s3b_defect is None
    else:
        assert rep.s3b_defect == pytest.approx(rest["s3b"], rel=1e-5)
    # the adjoint pair loop, on the returned-adjoint family (rounding level)
    # and on a mismatched one (the table itself, an O(1) defect here)
    fs_r = nlw.fundamental_solution(nlw.reversed_operator(op, 1.0),
                                    fs.time_grid, h=1e-3)
    for other in (fs_r, fs):
        assert abs(nlw.adjoint_defect(fs, other)
                   - per_pair_adjoint(fs, other)) < 1e-13
    assert nlw.adjoint_defect(fs, fs) > 1e-3


def dense_operator(op):
    """``op`` without its diagonals, so its tables take the dense fill."""
    return nlw.BlockOperator(op.a_of_t, op.b_of_t, op.dim)


def assert_close_tables(fs, ref, rtol=1e-13):
    assert np.abs(fs.blocks - ref.blocks).max() <= \
        rtol * np.abs(ref.blocks).max()


@pytest.mark.parametrize("m", [1, 2, 16, 64])
@pytest.mark.parametrize("name", ["population", "undamped_neumann"])
def test_mode_table_matches_the_dense_table(name, m):
    rz = nlw.realize(nlw.builtin_scenarios()[name], m=m)
    fs = rz.fs
    assert fs.modes is not None and fs.modes.shape == (81, m, 2, 2)
    dense = nlw.fundamental_solution(dense_operator(rz.op), rz.grid, h=rz.h)
    assert dense.modes is None
    assert_close_tables(fs, dense)
    # the mode blocks are the table's, and nothing lies off them
    np.testing.assert_array_equal(propagator._expand(fs.modes), fs.blocks)
    assert fs.duhamel_bound() == dense.duhamel_bound()
    assert fs.first_column_bounds() == dense.first_column_bounds()
    # the overflow certificate reads the same float from either layout
    a0 = rz.op.a_of_t(0.0)
    assert _log_growth_bound(fs.modes[1:], a0) == \
        _log_growth_bound(fs.blocks[1:], a0)


def test_mode_path_on_a_non_uniform_grid():
    # substep counts 5, 5, 15, 5, 25 and 45 at h = 0.01: four groups
    rz = nlw.realize(nlw.scenario_population(), m=8)
    grid = np.array([0.0, 0.05, 0.1, 0.25, 0.3, 0.55, 1.0])
    fs = nlw.fundamental_solution(rz.op, grid, h=1e-2)
    dense = nlw.fundamental_solution(dense_operator(rz.op), grid, h=1e-2)
    assert fs.modes is not None
    assert_close_tables(fs, dense)
    np.testing.assert_allclose(fs.first_column_bounds(),
                               dense.first_column_bounds(), rtol=1e-13)
    # each interval alone gives its map of the whole grid's table
    for j in range(1, grid.size):
        alone = nlw.fundamental_solution(rz.op, grid[j - 1:j + 1], h=1e-2)
        np.testing.assert_array_equal(alone.modes[1], fs.modes[j])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("c,grid", [
    # finite maps whose products overflow after about 7 intervals
    ("-1e4", np.linspace(0.0, 10.0, 11)),
    # the first interval's own map overflows
    ("-1e6", np.linspace(0.0, 2.0, 3))])
def test_mode_path_blowup_names_the_interval_of_the_dense_fill(c, grid):
    # u'' = -c u on every mode, as in the dense blow-up test
    basis = nlw.build_basis(nlw.interval(np.pi), 2)
    form = nlw.FormSpec(None, nlw.coefficient_field("c", c), None, grid[-1])
    op = nlw.block_operator(form, basis)
    assert op.diagonals is not None
    errors = []
    for o in (op, dense_operator(op)):
        with pytest.raises(nlw.PropagationError,
                           match="between nodes [0-9]+ and [0-9]+") as exc:
            nlw.fundamental_solution(o, grid, h=1e-3)
        errors.append((str(exc.value), exc.value.time))
    assert errors[0] == errors[1]


def test_coefficient_over_x_keeps_the_dense_table(basis_pi8):
    f = nlw.FormSpec(nlw.coefficient_field("a", "1 + t/2"),
                     nlw.coefficient_field("c", "1 + cos(x)/4"), None, 1.0)
    op = nlw.block_operator(f, basis_pi8)
    assert op.diagonals is None
    grid = np.linspace(0.0, 1.0, 11)
    fs = nlw.fundamental_solution(op, grid, h=1e-2)
    assert fs.modes is None
    supplier_op = nlw.undamped_operator(nlw.stiffness_supplier(f, basis_pi8),
                                        8)
    want = nlw.fundamental_solution(supplier_op, grid, h=1e-2)
    np.testing.assert_array_equal(fs.blocks, want.blocks)


def test_gram_matrix_off_its_diagonal_keeps_the_dense_table(basis_pi8,
                                                           monkeypatch):
    f = nlw.FormSpec(nlw.coefficient_field("a", "1 + t/2"), None, None, 1.0)
    assert nlw.block_operator(f, basis_pi8).diagonals is not None
    # the gradient Gram matrix has off-diagonal rounding; with no tolerance
    # it is not diagonal
    monkeypatch.setattr(forms, "GRAM_TOL", 0.0)
    assert nlw.block_operator(f, basis_pi8).diagonals is None


@pytest.mark.parametrize("name", ["population", "undamped_neumann"])
def test_adjoint_check_on_a_mode_table(name):
    rz = nlw.realize(nlw.builtin_scenarios()[name], m=16)
    T = float(rz.grid[-1])
    assert nlw.reversed_operator(rz.op, T).diagonals is not None
    assert nlw.adjoint_check(rz.fs, rz.op) < 1e-12


@pytest.mark.parametrize("name", ["population", "undamped_neumann"])
def test_spectral_frequency_from_the_diagonals(name):
    rz = nlw.realize(nlw.builtin_scenarios()[name], m=32)
    T = float(rz.grid[-1])
    dense = dense_operator(rz.op)
    freq = propagator.spectral_frequency(rz.op, T)
    want = propagator.spectral_frequency(dense, T)
    assert abs(freq - want) <= 1e-14 * want
    # the same steps pass and fail on either path
    limit = propagator.STABILITY_LIMIT / want
    for h in (rz.h, 0.5 * limit, limit * (1 - 1e-9), limit * (1 + 1e-9),
              2.0 * limit):
        outcomes = []
        for op in (rz.op, dense):
            try:
                propagator.validate_step(op, T, h)
                outcomes.append("ok")
            except ConfigurationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], h
    assert outcomes[0] != "ok"


def test_table_bytes_counts_the_scan_factors_of_a_mode_table(monkeypatch):
    rz = nlw.realize(nlw.scenario_population(), m=32)
    fs = rz.fs
    P, Q = fs.scan_factors()
    need = propagator.table_bytes(32, 81, modes=True)
    extra = need - propagator.table_bytes(32, 81)
    assert extra == fs.modes.nbytes + P.nbytes + Q.nbytes
    assert extra == 3 * 81 * 4 * 32 * 8
    # about 0.25 MB at m=32
    assert 0.24e6 < extra < 0.26e6
    # a mode table is checked against its whole size before it is made
    monkeypatch.setattr(propagator, "memory_budget", lambda: need - 1)
    with pytest.raises(ConfigurationError, match="MemAvailable"):
        nlw.fundamental_solution(rz.op, rz.grid, h=rz.h)
    monkeypatch.setattr(propagator, "memory_budget", lambda: need)
    assert nlw.fundamental_solution(rz.op, rz.grid, h=rz.h).modes is not None
