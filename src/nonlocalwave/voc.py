"""Linear inhomogeneous solves via variation of constants, plus the
direct-integration oracle and a discrete residual certifier.

The representation path evaluates

    u(t) = C(t,0) u0 + S(t,0) u1 + int_0^t S(t,s) f(s) ds

(with v1, v2 for damped problems) on the fundamental-solution grid as a
recurrence over the interval maps Phi_i = E(t_i, t_{i-1}): the homogeneous
state and a composite-Simpson accumulator are advanced one interval at a
time, so one evaluation costs O(N m^2) and reads only the blocks E(t_i, t_j)
with i - j <= 3.  Velocities come from the derivative blocks, never from
differencing the u-track.  The oracle path integrates the full inhomogeneous
block system with the same one-step method but no tables, giving an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import ConfigurationError
from .propagator import _Stepper
from .spectral import Trajectory


@dataclass
class LinearProblem:
    """u'' + B(t)u' + A(t)u = f(t) with plain initial data (u0, u1)."""

    op: object
    u0: np.ndarray
    u1: np.ndarray
    forcing: Callable | None
    horizon: float

    def __post_init__(self):
        dt = np.result_type(np.asarray(self.u0).dtype,
                            np.asarray(self.u1).dtype, float)
        self.u0 = np.asarray(self.u0, dtype=dt)
        self.u1 = np.asarray(self.u1, dtype=dt)
        if self.u0.shape != (self.op.dim,) or self.u1.shape != (self.op.dim,):
            raise ConfigurationError("initial data do not match the operator dim")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")


def _grid_indices(fs, grid):
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ConfigurationError("output grid must be strictly increasing")
    try:
        return grid, [fs.node_index(t) for t in grid]
    except ConfigurationError:
        raise ConfigurationError(
            "output grid must be a subset of the fundamental-solution grid; "
            "rebuild the tables on a refinement of the requested grid") from None


def single_interval_duhamel(fs, op, i, j0, F, dt):
    """Endpoint-corrected trapezoid for int_{t_j0}^{t_i} S(t_i,s)F(s)ds, i = j0+1.

    The plain trapezoid here is only third-order accurate, which the
    residual's second differences would amplify; the Euler-Maclaurin
    derivative correction restores smooth O(dt^5) startup error.  The
    s-derivative of S comes from the backward identity dE/ds = -E G(s).
    """
    q0 = fs.S(i, j0) @ F[j0]                     # S(t_i, t_i) F = 0 at s = t_i
    if j0 + 2 < F.shape[0]:
        fp0 = (-3.0 * F[j0] + 4.0 * F[j0 + 1] - F[j0 + 2]) / (2.0 * dt)
    else:
        fp0 = (F[j0 + 1] - F[j0]) / dt
    ds_s = -fs.C(i, j0)
    if op.b_of_t is not None:
        ds_s = fs.S(i, j0) @ np.asarray(op.b_of_t(fs.time_grid[j0])) - fs.C(i, j0)
    q1p = -F[i]
    q0p = ds_s @ F[j0] + fs.S(i, j0) @ fp0
    return 0.5 * dt * q0 - dt ** 2 / 12.0 * (q1p - q0p)


def representation(fs, op, x0, y0, F, start=0, stop=None, u=None, v=None):
    """u/v tracks of the representation formula on nodes a..b = start..stop.

    The data (x0, y0) are frozen at t_a; F holds f-samples on the full fs
    grid (None for a homogeneous problem).  With Z_j = (0, F_j), k = i - a and
    the window's uniform step h, the state X_i = Phi_i X_{i-1} carries the
    homogeneous part and the accumulator acc_i = Phi_i acc_{i-1} + c_k Z_i
    (acc_a = Z_a, c_k = 4 for odd k, 2 for even k) carries the composite-
    Simpson Duhamel sum over [t_a, t_i]:

    * k = 1: the endpoint-corrected startup rule for u, a trapezoid for v;
    * even k: Simpson, (h/3)(acc_i - Z_i);
    * odd k >= 3: Simpson up to t_{i-3}, carried by E(t_i, t_{i-3}), then
      one closing 3/8 panel on the last three intervals.

    Each node costs a few (2m x 2m) mat-vecs, and only the blocks
    E(t_i, t_j) with i - j <= 3 are read.  A forced window must be uniform.
    Rows of ``u`` and ``v`` outside start..stop are left untouched.
    """
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
            duh[:m] = single_interval_duhamel(fs, op, i, a, F, h)
        elif k % 2 == 0:
            duh = h / 3.0 * (acc[k] - Z[k])
        else:
            j = k - 3
            duh = (fs.E(i, i - 3) @ (h / 3.0 * (acc[j] - Z[j])
                                     + 3.0 * h / 8.0 * Z[j])
                   + 9.0 * h / 8.0 * (fs.E(i, i - 2) @ Z[k - 2]
                                      + phi @ Z[k - 1])
                   + 3.0 * h / 8.0 * Z[k])
        u[i], v[i] = X[:m] + duh[:m], X[m:] + duh[m:]
    return u, v


def solve_undamped(p, fs, grid):
    """Representation-formula solve on ``grid`` (each node must be an fs node)."""
    if fs.kind != "undamped":
        raise ConfigurationError("solve_undamped needs an undamped family")
    return solve(p, fs, grid)


def solve_damped(p, fs, grid):
    """Damped representation u = v1 u0 + v2 u1 + int v2(t,s) f(s) ds."""
    if fs.kind != "damped":
        raise ConfigurationError("solve_damped needs a damped family")
    return solve(p, fs, grid)


def solve(p, fs, grid):
    """Representation-formula solve for either family kind."""
    grid, idx = _grid_indices(fs, grid)
    F = None
    if p.forcing is not None:
        F = np.array([np.asarray(p.forcing(t)) for t in fs.time_grid])
    u, v = representation(fs, p.op, p.u0, p.u1, F, stop=max(idx, default=0))
    return Trajectory(grid, u[idx], v[idx])


def direct_integrate(p, h, grid=None):
    """Integrate the full inhomogeneous block system; the oracle path.

    ``grid`` defaults to a uniform grid of step ~h over the horizon.  The
    integrator substeps between output nodes with steps of size <= h.
    """
    if h <= 0:
        raise ConfigurationError("step h must be positive")
    if grid is None:
        n = max(1, int(np.ceil(p.horizon / h - 1e-12)))
        grid = np.linspace(0.0, p.horizon, n + 1)
    else:
        grid = np.asarray(grid, dtype=float)
    m = p.op.dim
    forcing = None
    if p.forcing is not None:
        forcing = lambda t: np.asarray(p.forcing(t))
    stepper = _Stepper(p.op, forcing)
    state = np.concatenate([p.u0, p.u1])
    if forcing is not None:
        state = state.astype(np.result_type(state.dtype, forcing(0.0).dtype))
    u = np.empty((grid.size, m), dtype=state.dtype)
    v = np.empty((grid.size, m), dtype=state.dtype)
    u[0], v[0] = p.u0, p.u1
    from .errors import PropagationError
    for i in range(1, grid.size):
        t0, t1 = grid[i - 1], grid[i]
        n = max(1, int(np.ceil((t1 - t0) / h - 1e-12)))
        dt = (t1 - t0) / n
        for k in range(n):
            state = stepper.step(t0 + k * dt, dt, state)
            if not np.all(np.isfinite(state)):
                raise PropagationError(
                    f"direct integration diverged at step {k} after t={t0:.6g}",
                    time=t0 + (k + 1) * dt, step_index=k)
        u[i], v[i] = state[:m], state[m:]
    return Trajectory(grid, u, v)


@dataclass
class ResidualReport:
    equation: float     # discrete L2(0,T;H) norm of u'' + B u' + A u - f
    ic_u: float         # |u(0) - u0|_H
    ic_v: float         # |u'(0) - u1|_H


def residual(traj, op, f=None, u0=None, u1=None):
    """Discrete residual of u'' + B(t)u' + A(t)u = f along a trajectory.

    The second derivative is the three-point second difference of the
    u-track (so the residual of an exact solution decays like the square of
    the grid step); the damping term uses the trajectory's velocity track.
    ``f`` holds the right-hand side sampled at the trajectory's nodes, shape
    (N, m) like ``traj.u`` (a semilinear f(t, u) is sampled as one call on
    the (N, 1) time column, e.g. ``fixedpoint.superpose``); None means f = 0.
    """
    grid = traj.grid
    if grid.size < 3:
        raise ConfigurationError("residual needs at least three grid nodes")
    dt = quadrature.require_uniform(grid)
    if f is not None and np.shape(f) != traj.u.shape:
        raise ConfigurationError(
            f"right-hand side samples have shape {np.shape(f)}, "
            f"need {traj.u.shape}")
    inner = grid[1:-1]
    u = traj.u
    r = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dt ** 2 + np.einsum(
        "nij,nj->ni", np.array([op.a_of_t(t) for t in inner]), u[1:-1])
    if f is not None:
        r = r - f[1:-1]
    if op.b_of_t is not None:
        r = r + np.einsum("nij,nj->ni", np.array([op.b_of_t(t) for t in inner]),
                          traj.v[1:-1])
    eq = float(np.sqrt(np.sum(np.abs(r) ** 2) * dt))
    ic_u = 0.0 if u0 is None else float(np.linalg.norm(traj.u[0] - u0))
    ic_v = 0.0 if u1 is None else float(np.linalg.norm(traj.v[0] - u1))
    return ResidualReport(eq, ic_u, ic_v)
