"""Nonlocal initial-condition operators, superposition, and the two
fixed-point engines.

Both engines iterate on trajectories in C([0,T]; H_m) (sup norm).  The
contraction engine realises the map

    (P w)(t) = v1(t,0) g(w) + v2(t,0) h(w) + int_0^t v2(t,s) f(s, w(s)) ds

predicting its contraction coefficient q = (M1 Lg + M2 Lh) sqrt(T) + L M_2T
from measured block bounds and certified kernel constants; when q >= 1 and
the Duhamel part is reducible it concatenates sub-interval solves of length
T* chosen so the local coefficient stays below a safety threshold.  The
relaxed engine runs the plain Picard iteration w <- T(w) and falls back to
homotopy continuation in w = lambda T(w), reporting the reachable lambda
honestly when it stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import forms, quadrature, voc
from .errors import ConfigurationError, NonconvergenceError
from .expressions import Expression, as_expression
from .spectral import Trajectory, node_samples, project, zero_trajectory

MAX_ITER = 200          # global iterations of either engine
SAFETY = 0.9            # largest local coefficient a partition may leave
INNER_MAX_ITER = 60     # sweeps per sub-interval and per homotopy stage
LAMBDA_STEPS = 6        # initial homotopy grid on [0, 1]
MIN_LAMBDA_STEP = 0.05  # the homotopy stalls below this step
PROBE_COUNT, PROBE_RADIUS = 8, 2.0     # random trajectories bounding r1, r2
BALL_TOL = 1e-6         # slack of the Gronwall ball check
GROWTH_PROBES, GROWTH_RADIUS, GROWTH_TOL = 20, 2.0, 1e-9  # validate_growth
REFINE_PROBES = 5       # random unit probes y of galerkin_refine's action diff


@dataclass
class NonlocalKernel:
    """g(u) = int_0^T kappa(s, .) u(s, .) ds + offset.

    ``expression`` is kappa, with the time variable written as t, and
    ``horizon`` is T, finite and positive.  ``offset`` is None, an
    :class:`Expression` of x[, y], or an (m,) array of basis coefficients.
    """

    expression: Expression
    horizon: float
    offset: object = None

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ConfigurationError(
                f"kernel horizon must be finite and positive, got "
                f"{self.horizon!r}")

    def evaluator(self, s, x, y=None):
        """kappa at a scalar time or an (N, 1) column of times: values that
        broadcast against ``x``, to (N, Q) for a column."""
        return self.expression(t=s, x=x, y=0.0 if y is None else y)

    def offset_coeffs(self, basis):
        if self.offset is None:
            return np.zeros(basis.m)
        if isinstance(self.offset, Expression):
            return project(basis, node_samples(basis, self.offset))
        if np.shape(self.offset) != (basis.m,):
            raise ConfigurationError("offset coefficients do not match basis")
        return self.offset


def nonlocal_kernel(expr, horizon, offset=None):
    """Kernel from an expression (time variable written as t); a string or
    number offset is read as an expression of x[, y], an array is kept as
    basis coefficients."""
    if offset is not None and not isinstance(offset, np.ndarray):
        offset = as_expression(offset)
    return NonlocalKernel(as_expression(expr), horizon, offset)


def apply_kernel(kernel, traj, basis):
    """Composite time quadrature of kappa(s,.) u(s,.), projected, plus offset.

    The kernel is sampled once on the whole (N, 1) time column against the
    spatial quadrature nodes, so g(u) = P(sum_i w_i kappa(s_i, .) u(s_i, .))
    is one (N, Q) product, one weighted sum and one projection.
    """
    grid = traj.grid
    if grid.size < 5:
        raise ConfigurationError(
            "trajectory grid too coarse for the kernel quadrature (need >= 5 nodes)")
    if not (abs(grid[0]) <= 1e-12 and abs(grid[-1] - kernel.horizon) <= 1e-9):
        raise ConfigurationError("trajectory must cover [0, T] of the kernel")
    w = quadrature.composite_weights(grid)
    kappa = kernel.evaluator(grid[:, None], basis.nodes_x, basis.nodes_y)
    return (project(basis, w @ (kappa * basis.evaluate(traj.u)))
            + kernel.offset_coeffs(basis))


@dataclass
class Nonlinearity:
    """f(t, u) acting on coefficient vectors, with declared constants.

    ``kind`` is 'lipschitz' (uniformly Lipschitz in u, constant L) or
    'growth' (sublinear growth |f(t,u)| <= a |u| + b(t)).

    Every time-dependent callable here takes ``t`` either as a scalar or as
    an (N, 1) column of times that broadcasts: ``evaluator(t, U)`` maps
    ``U`` of shape (m,) or (N, m) to values of the same shape, one row per
    time, and ``growth_b(t)`` returns a number, or for a column an array
    that broadcasts to (N, 1).  A whole trajectory is thus one call.
    """

    evaluator: Callable           # (t, coeffs) -> coeffs
    kind: str
    growth_a: float = 0.0
    growth_b: Callable = None
    lipschitz: float | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.kind not in ("lipschitz", "growth"):
            raise ConfigurationError(f"unknown nonlinearity kind {self.kind!r}")
        if self.growth_b is None:
            self.growth_b = lambda t: 0.0

    def ball_growth(self, m):
        """(a, b) pair used for the a-priori trajectory ball."""
        if self.kind == "growth":
            return self.growth_a, self.growth_b
        L = self.lipschitz or 0.0
        return L, lambda t: _row_norms(
            self.evaluator(t, np.zeros(np.shape(t)[:-1] + (m,))), t)


def _row_norms(values, t):
    """H-norms of f-values at a scalar t, or per row, as a column, at an
    (N, 1) column t."""
    return np.linalg.norm(values, axis=-1, keepdims=np.ndim(t) > 0)


def _b_samples(b, grid):
    """b(t) at every grid node, one call on the time column; shape (N,)."""
    col = grid[:, None]
    return np.broadcast_to(b(col), col.shape)[:, 0]


def zero_nonlinearity():
    return Nonlinearity(lambda t, u: np.zeros_like(u), "lipschitz",
                        growth_a=0.0, lipschitz=0.0, name="none")


def linear_nonlinearity(rho):
    """f(t, u) = rho * u, mainly for closed-form fixtures."""
    return Nonlinearity(lambda t, u: rho * u, "lipschitz",
                        growth_a=abs(rho), lipschitz=abs(rho), name="linear")


def pointwise_nonlinearity(basis, fn, kind, growth_a=None, lipschitz=None,
                           name="custom", growth_b=None):
    """Superposition f(t,u)(x) = fn(t, u(x)) realised through quadrature.

    ``fn(t, vals)`` receives node values of shape (Q,) or (N, Q) and a
    scalar or (N, 1) time column that broadcasts against them.
    """
    def evaluator(t, coeffs):
        return project(basis, fn(t, basis.evaluate(coeffs)))
    return Nonlinearity(evaluator, kind, growth_a=growth_a or 0.0,
                        growth_b=growth_b, lipschitz=lipschitz, name=name)


def with_extra_forcing(nl, extra):
    """Add a time-dependent forcing term (manufactured-solution hook).

    ``extra(t)`` follows the time-column contract of :class:`Nonlinearity`:
    coefficients of shape (m,) or (N, m).  Its norm joins the growth term b.
    """
    def evaluator(t, coeffs):
        return nl.evaluator(t, coeffs) + extra(t)
    base_b = nl.growth_b

    def growth_b(t):
        return base_b(t) + _row_norms(extra(t), t)
    return Nonlinearity(evaluator, nl.kind, growth_a=nl.growth_a,
                        growth_b=growth_b, lipschitz=nl.lipschitz,
                        name=nl.name + "+forcing")


def growth_excess(nl, traj, values=None):
    """Largest violation of |f(t,u)| <= a|u| + b(t) along a trajectory."""
    a, b = nl.ball_growth(traj.m)
    if values is None:
        values = superpose(nl, traj)
    bound = a * np.linalg.norm(traj.u, axis=1) + _b_samples(b, traj.grid)
    return max(0.0, float(np.max(np.linalg.norm(values, axis=1) - bound)))


def validate_growth(nl, m, horizon, rng):
    """Sample random coefficient vectors and check the declared growth bound."""
    a, b = nl.ball_growth(m)
    worst = 0.0
    for _ in range(GROWTH_PROBES):
        t = float(rng.uniform(0.0, horizon))
        u = rng.standard_normal(m) * GROWTH_RADIUS
        worst = max(worst, float(np.linalg.norm(nl.evaluator(t, u)))
                    - (a * float(np.linalg.norm(u)) + float(b(t))))
    if worst > GROWTH_TOL:
        raise ConfigurationError(
            f"nonlinearity {nl.name!r} violates its declared growth bound "
            f"by {worst:.3e} on random probes")
    return worst


def superpose(nl, traj):
    """Pointwise-in-time application N_f(u)(t) = f(t, u(t)): one evaluator
    call on the (N, 1) time column and the (N, m) coefficient rows."""
    return nl.evaluator(traj.grid[:, None], traj.u)


def gronwall_radius(m1, m2, r1, r2, b_l1, a, horizon):
    """(M1 r1 + M2 r2 + M2 |b|_L1) * exp(M2 a T)."""
    return (m1 * r1 + m2 * r2 + m2 * b_l1) * float(np.exp(m2 * a * horizon))


@dataclass
class NonlocalProblem:
    """Semilinear problem with nonlocal data u(0) = g(u), u'(0) = h(u)."""

    op: object
    basis: object
    kernel_g: NonlocalKernel
    kernel_h: NonlocalKernel
    nonlinearity: Nonlinearity
    horizon: float


@dataclass
class SolveConfig:
    tol: float = 1e-8
    seed: int = 0


@dataclass
class FixedPointReport:
    method: str
    converged: bool
    iterations: int
    update_norms: list = field(default_factory=list)
    measured_ratio: float | None = None
    predicted_q: float | None = None
    q_nonlocal: float | None = None
    q_duhamel: float | None = None
    t_star: float | None = None
    partition: list | None = None
    m1: float = 0.0
    m2: float = 0.0
    m2t: float = 0.0
    l_g: float | None = None
    l_h: float | None = None
    lipschitz: float | None = None
    r1: float = 0.0
    r2: float = 0.0
    residual_equation: float | None = None
    residual_ic_u: float | None = None
    residual_ic_v: float | None = None
    gronwall_radius: float | None = None
    gronwall_ok: bool | None = None
    growth_excess: float = 0.0
    homotopy_path: list = field(default_factory=list)
    lambda_reached: float | None = None
    message: str = ""

    def to_dict(self):
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, np.floating):
                v = float(v)
            out[k] = v
        return out


def _solution_map(problem, fs, w, x0, y0, partition=None, tol=None):
    """One application of the solution map, optionally by concatenation,
    whose inner sweeps stop below ``0.1 * tol``."""
    F = superpose(problem.nonlinearity, w)
    grid = fs.time_grid
    if partition is None:
        u, v = voc.representation(fs, problem.op, x0, y0, F)
        return Trajectory(grid, u, v)
    # forward concatenation with an inner Picard solve per sub-interval
    inner_tol = 0.1 * tol
    u = np.empty((grid.size, fs.m))
    v = np.empty((grid.size, fs.m))
    xa, ya = x0, y0
    local = w.u.copy()
    for a, b in zip(partition[:-1], partition[1:]):
        for _ in range(INNER_MAX_ITER):
            voc.representation(fs, problem.op, xa, ya, F, start=a, stop=b,
                               u=u, v=v)
            upd = float(np.max(np.linalg.norm(u[a:b + 1] - local[a:b + 1],
                                              axis=1)))
            local[a:b + 1] = u[a:b + 1]
            chunk = Trajectory(grid[a:b + 1], u[a:b + 1], v[a:b + 1])
            F[a:b + 1] = superpose(problem.nonlinearity, chunk)
            if upd < inner_tol:
                break
        else:
            raise NonconvergenceError(
                f"inner iteration stalled on sub-interval [{grid[a]:.4g}, "
                f"{grid[b]:.4g}]")
        xa, ya = u[b], v[b]
    return Trajectory(grid, u, v)


def _measured_ratio(updates, tol):
    ratios = [updates[i] / updates[i - 1]
              for i in range(3, len(updates))
              if updates[i - 1] > max(10.0 * tol, 1e-300)]
    return max(ratios) if ratios else None


def _nonlocal_data(problem, w, report):
    """The nonlocal data (g(w), h(w)), raising ``report.r1`` and
    ``report.r2`` to their norms when these are larger."""
    x = apply_kernel(problem.kernel_g, w, problem.basis)
    y = apply_kernel(problem.kernel_h, w, problem.basis)
    report.r1 = max(report.r1, float(np.linalg.norm(x)))
    report.r2 = max(report.r2, float(np.linalg.norm(y)))
    return x, y


def _finalise(problem, fs, w, report, tol, sup_w):
    x, y = _nonlocal_data(problem, w, report)
    report.residual_ic_u = float(np.linalg.norm(w.u[0] - x))
    report.residual_ic_v = float(np.linalg.norm(w.v[0] - y))
    nl = problem.nonlinearity
    F = superpose(nl, w)
    report.residual_equation = voc.residual(w, problem.op, F)
    report.growth_excess = growth_excess(nl, w, F)
    a, b = nl.ball_growth(fs.m)
    b_l1 = float(quadrature.integrate(np.abs(_b_samples(b, fs.time_grid)),
                                      fs.time_grid))
    report.gronwall_radius = gronwall_radius(
        report.m1, report.m2, report.r1, report.r2, b_l1, a, problem.horizon)
    report.gronwall_ok = bool(
        max(sup_w, default=0.0) <= report.gronwall_radius + BALL_TOL)
    report.measured_ratio = _measured_ratio(report.update_norms, tol)


def contraction_solve(problem, fs, cfg=None):
    """Banach iteration with predicted coefficient and optional partition.

    Requires a uniformly Lipschitz nonlinearity and certified kernel
    constants.  When the predicted q is >= 1 but the nonlocal part alone
    stays below the safety threshold, the horizon is split into sub-intervals
    of length T* and each solution-map application solves them forward; when
    even the nonlocal part is >= the threshold, no partition is admissible
    and the global iteration runs anyway, reported honestly.  Divergence
    raises :class:`NonconvergenceError` carrying the iterate history.
    """
    cfg = cfg or SolveConfig()
    if problem.nonlinearity.lipschitz is None:
        raise ConfigurationError(
            "contraction_solve needs a Lipschitz nonlinearity with declared L")
    grid = fs.time_grid
    T = problem.horizon
    m1, m2 = fs.first_column_bounds()
    m2t = fs.duhamel_bound()
    lg = forms.kernel_lipschitz(problem.kernel_g, problem.basis).into_h
    lh = forms.kernel_lipschitz(problem.kernel_h, problem.basis).into_h
    L = problem.nonlinearity.lipschitz
    q_nonlocal = (m1 * lg + m2 * lh) * np.sqrt(T)
    q_duhamel = L * m2t
    q = q_nonlocal + q_duhamel

    # sub-intervals of `stride` grid steps, from the predicted q
    stride = None
    dt = grid[1] - grid[0]
    message = ""
    if q >= 1.0:
        if L > 0 and m2 > 0 and q_nonlocal <= SAFETY:
            tau = (SAFETY - q_nonlocal) / (L * m2)
            stride = max(1, int(np.floor(tau / dt + 1e-12)))
            if stride >= grid.size - 1:
                stride = None
        if stride is None:
            message = (f"predicted q={q:.4g} >= 1 and the nonlocal part "
                       f"{q_nonlocal:.4g} is irreducible by partition; "
                       "running the global iteration")
        else:
            message = (f"predicted q={q:.4g} >= 1; partitioned with "
                       f"T*={stride * dt:.4g}")
    partition = t_star = None
    if stride is not None:
        partition = list(range(0, grid.size - 1, stride)) + [grid.size - 1]
        t_star = stride * dt

    report = FixedPointReport(
        method="contraction", converged=False, iterations=0,
        predicted_q=float(q), q_nonlocal=float(q_nonlocal),
        q_duhamel=float(q_duhamel), t_star=t_star, partition=partition,
        m1=m1, m2=m2, m2t=m2t, l_g=lg, l_h=lh, lipschitz=L, message=message)

    w = zero_trajectory(grid, fs.m)
    sup_w = []
    for k in range(1, MAX_ITER + 1):
        x0, y0 = _nonlocal_data(problem, w, report)
        w_new = _solution_map(problem, fs, w, x0, y0, partition, cfg.tol)
        upd = float(np.max(np.linalg.norm(w_new.u - w.u, axis=1)))
        if not np.isfinite(upd):
            report.iterations = k
            raise NonconvergenceError("iteration diverged to non-finite state",
                                      report=report)
        report.update_norms.append(upd)
        w = w_new
        sup_w.append(w.sup_h_norm())
        report.iterations = k
        if upd < cfg.tol:
            report.converged = True
            break
    _finalise(problem, fs, w, report, cfg.tol, sup_w)
    if not report.converged:
        report.message += " | no convergence within max_iter"
        raise NonconvergenceError(
            f"contraction iteration did not converge in {MAX_ITER} "
            f"iterations (last update {report.update_norms[-1]:.3e})",
            report=report)
    return w, report


def _picard(problem, fs, w, tol, budget, report, sup_w, scale=1.0):
    """Picard phase w <- scale * T(w); returns (w, converged).

    Stagnation is judged on this phase's own update norms, not the
    accumulated record, so homotopy stages do not see each other's tails.
    """
    local = []
    for _ in range(budget):
        x0, y0 = _nonlocal_data(problem, w, report)
        target = _solution_map(problem, fs, w, x0, y0)
        if scale != 1.0:
            target.u *= scale
            target.v *= scale
        upd = float(np.max(np.linalg.norm(target.u - w.u, axis=1)))
        w = target
        local.append(upd)
        report.update_norms.append(upd)
        report.iterations += 1
        sup_w.append(w.sup_h_norm())
        if not np.isfinite(upd):
            return w, False
        if upd < tol:
            return w, True
        if len(local) >= 10 and local[-1] > 0.98 * local[-5]:
            return w, False
    return w, False


def _homotopy(problem, fs, tol, report, sup_w):
    """Continuation in w = lambda T(w) from the exact fixed point w = 0 at
    lambda = 0; returns (w, converged).

    Each stage is a Picard phase started from the previous stage's point;
    a stage that fails halves its step, and a step below MIN_LAMBDA_STEP
    stalls the continuation at the last lambda reached.
    """
    w = zero_trajectory(fs.time_grid, fs.m)
    report.homotopy_path.append((0.0, 0, 0.0))
    report.lambda_reached = 0.0
    lams = np.linspace(0.0, 1.0, LAMBDA_STEPS).tolist()
    i = 1
    while i < len(lams):
        trial, ok = _picard(problem, fs, w, tol, INNER_MAX_ITER, report,
                            sup_w, scale=lams[i])
        if ok:
            w = trial
            report.lambda_reached = lams[i]
            report.homotopy_path.append(
                (float(lams[i]), report.iterations,
                 float(report.update_norms[-1])))
            i += 1
        elif lams[i] - lams[i - 1] > MIN_LAMBDA_STEP:
            lams.insert(i, 0.5 * (lams[i - 1] + lams[i]))
        else:
            report.message = (f"homotopy stalled at lambda="
                              f"{report.lambda_reached:.3g}")
            return w, False
    return w, True


def relaxed_solve(problem, fs, cfg=None):
    """Picard iteration w <- T(w), with homotopy fallback in w = lambda T(w).

    Existence is what the theory guarantees; convergence of this scheme is
    not, so stagnation below lambda = 1 produces a partial report and raises
    :class:`NonconvergenceError` rather than failing silently.
    """
    cfg = cfg or SolveConfig()
    grid = fs.time_grid
    rng = np.random.default_rng(cfg.seed)
    m1, m2 = fs.first_column_bounds()
    m2t = fs.duhamel_bound()

    report = FixedPointReport(method="relaxed", converged=False, iterations=0,
                              m1=m1, m2=m2, m2t=m2t)
    # bounds r1, r2 verified on random probe trajectories
    for _ in range(PROBE_COUNT):
        _nonlocal_data(problem, Trajectory(
            grid, rng.standard_normal((grid.size, fs.m)) * PROBE_RADIUS,
            np.zeros((grid.size, fs.m))), report)

    sup_w = []
    w, converged = _picard(problem, fs, zero_trajectory(grid, fs.m), cfg.tol,
                           MAX_ITER, report, sup_w)
    report.lambda_reached = 1.0 if converged else 0.0
    if not converged:
        w, converged = _homotopy(problem, fs, cfg.tol, report, sup_w)
    report.converged = converged
    _finalise(problem, fs, w, report, cfg.tol, sup_w)
    if not converged:
        raise NonconvergenceError(report.message, report=report)
    return w, report


@dataclass
class RefinementLevel:
    m: int
    fs: object
    trajectory: Trajectory | None
    report: FixedPointReport | None
    error: str | None = None


@dataclass
class RefinementRow:
    m: int
    converged: bool
    traj_diff: float
    fs_action_diff: float
    residual_equation: float | None


@dataclass
class ConvergenceTable:
    finest_m: int
    rows: list

    def diffs_nonincreasing(self):
        vals = [r.traj_diff for r in self.rows if np.isfinite(r.traj_diff)]
        return all(b <= a for a, b in zip(vals[:-1], vals[1:]))


def galerkin_refine(solve_level, m_list, rng=None):
    """Refinement sweep: solve at each m, compare against the finest level.

    ``solve_level(m)`` must return a :class:`RefinementLevel` on a grid
    shared by all levels.  Reports L2(0,T;H) trajectory differences and the
    largest fundamental-solution action difference
    |S_m(t,s) P_m y - S_M(t,s) y| over all grid pairs and REFINE_PROBES
    random unit probes y.
    A level that fails to converge is marked and the sweep continues.
    """
    m_list = list(m_list)
    if len(m_list) < 2 or any(b < a for a, b in zip(m_list[:-1], m_list[1:])):
        raise ConfigurationError("m_list must be nondecreasing with >= 2 entries")
    rng = rng or np.random.default_rng(0)
    levels = []
    for m in m_list:
        try:
            levels.append(solve_level(m))
        except NonconvergenceError as exc:
            levels.append(RefinementLevel(m, None, None,
                                          getattr(exc, "report", None),
                                          error=str(exc)))
    finest = levels[-1]
    if finest.error is not None:
        raise NonconvergenceError(
            f"finest level m={finest.m} failed: {finest.error}")
    M = finest.m
    ys = rng.standard_normal((REFINE_PROBES, M))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    rows = []
    for lev in levels[:-1]:
        if lev.error is not None:
            rows.append(RefinementRow(lev.m, False, float("nan"),
                                      float("nan"), None))
            continue
        diff_u = finest.trajectory.u.copy()
        diff_u[:, :lev.m] -= lev.trajectory.u
        traj_diff = quadrature.l2_time_norm(diff_u, finest.trajectory.grid)
        # a row of pairs at a time: S blocks (i + 1, m, m) times a probe
        act = 0.0
        for i in range(lev.fs.n_nodes):
            small_s = lev.fs.row(i)[:, :lev.m, lev.m:]
            big_s = finest.fs.row(i)[:, :M, M:]
            for y in ys:
                big = big_s @ y
                big[:, :lev.m] -= small_s @ y[:lev.m]
                act = max(act, float(np.linalg.norm(big, axis=1).max()))
        rows.append(RefinementRow(
            lev.m, True, float(traj_diff), act,
            None if lev.report is None else lev.report.residual_equation))
    rows.append(RefinementRow(M, True, 0.0, 0.0,
                              None if finest.report is None
                              else finest.report.residual_equation))
    return ConvergenceTable(M, rows)
