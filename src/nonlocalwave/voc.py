"""Linear inhomogeneous solves via variation of constants, plus the
direct-integration oracle and a discrete residual certifier.

The representation path evaluates

    u(t) = C(t,0) u0 + S(t,0) u1 + int_0^t S(t,s) f(s) ds

(with v1, v2 for damped problems) on the fundamental-solution grid as a
recurrence over the interval maps Phi_i = E(t_i, t_{i-1}): one chain, the
homogeneous state plus the composite-Simpson Duhamel sum, is advanced one
interval at a time with one mat-vec per interval, so one evaluation costs
O(N m^2) and reads only the interval maps.
Velocities come from the derivative blocks, never from differencing the
u-track.  The oracle path integrates the full inhomogeneous block system
with the same one-step method but no tables, giving an independent
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import ConfigurationError
from .propagator import _span
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
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError("horizon must be finite and positive")


def _grid_indices(fs, grid):
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.diff(grid) > 0):
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


def _mv(M, x):
    """Stacked mat-vecs M[k] @ x[k], one gemv per slice."""
    return (M @ x[..., None])[..., 0]


def representation(fs, op, x0, y0, F, start=0, stop=None, u=None, v=None):
    """u/v tracks of the representation formula on nodes a..b = start..stop.

    The data (x0, y0) are frozen at t_a; F holds f-samples on the full fs
    grid, shape (N, m) (None for a homogeneous problem).  With Z_j = (0, F_j),
    k = i - a and the window's uniform step h, one chain carries the
    homogeneous state and the composite-Simpson Duhamel sum over [t_a, t_i]
    together, since the formula is linear in the state:

        V_0 = X_0 + (h/3) Z_a,   V_k = Phi_i V_{k-1} + w_k Z_i,

    with X_0 = (x0, y0) and w_k = 4h/3 for odd k, 2h/3 for even k.  The
    tracks U_i = (u_i, v_i) come from V alone:

    * even k: U_i = V_k - (h/3) Z_i, Simpson over [t_a, t_i];
    * odd k >= 3: Simpson up to t_{i-3} and one closing 3/8 panel on the
      last three intervals, Phi_i (Phi_{i-1} (Phi_{i-2} y + c Z_{i-2}) +
      c Z_{i-1}) + (3h/8) Z_i with c = 9h/8 and y = U_{i-3} + (3h/8) Z_{i-3};
    * k = 1: Phi_{a+1} X_0 plus the endpoint-corrected startup rule for u
      and a trapezoid for v.

    The node loop makes one (2m x 2m) mat-vec per node, written in place
    with Phi_i read from ``fs.blocks``; the even-node split and the closing
    panels (three stacked mat-vecs over the maps of the odd nodes) are
    whole-window array passes, the same floats as one 2-D mat-vec per map
    and node.  A homogeneous call runs the same loop on X alone.  Only
    ``fs.blocks`` is read, apart from the startup rule's E(t_{a+1}, t_a).
    A forced window must be uniform.  Rows of ``u`` and ``v`` outside
    start..stop are left untouched.  The table must be of ``op``'s kind,
    since the startup rule reads B(t) from the operator.  A window outside
    0 <= start <= stop <= N - 1, or data or samples of the wrong shape,
    raise :class:`ConfigurationError` before anything is allocated.
    """
    if op.kind != fs.kind:
        raise ConfigurationError(
            f"a {op.kind} operator needs a {op.kind} family, "
            f"got a {fs.kind} one")
    m = fs.m
    grid = fs.time_grid
    N = grid.size
    a = start
    b = N - 1 if stop is None else stop
    if not 0 <= a <= b <= N - 1:
        raise ConfigurationError(
            f"window start={start}, stop={stop} must satisfy "
            f"0 <= start <= stop <= {N - 1}")
    for name, x in (("x0", x0), ("y0", y0)):
        if np.shape(x) != (m,):
            raise ConfigurationError(
                f"{name} has shape {np.shape(x)}, need ({m},)")
    if F is not None and np.shape(F) != (N, m):
        raise ConfigurationError(
            f"forcing samples have shape {np.shape(F)}, need ({N}, {m})")
    K = b - a
    if u is None:
        dt = np.result_type(x0, y0, float if F is None else F)
        u = np.empty((N, m), dtype=dt)
        v = np.empty((N, m), dtype=dt)
    phi = fs.blocks[a:b + 1]      # phi[k] = Phi_{a+k}
    # the node loops run over views; ndarray.dot into ``out`` is the same
    # gemv as np.matmul, the same floats, at less cost per call
    phis = list(phi)
    X0 = np.concatenate([x0, y0])
    if F is None or K == 0:
        U = np.empty((K + 1, 2 * m), dtype=np.result_type(X0, float))
        U[0] = X0
        Us = list(U)
        for Phi, prev, cur in zip(phis[1:], Us, Us[1:]):
            Phi.dot(prev, out=cur)
        u[a:b + 1], v[a:b + 1] = U[:, :m], U[:, m:]
        return u, v
    h = quadrature.require_uniform(grid[a:b + 1])
    Z = np.zeros((K + 1, 2 * m), dtype=np.result_type(F, float))
    Z[:, m:] = F[a:b + 1]
    wZ = np.empty_like(Z)
    wZ[1::2] = 4.0 * h / 3.0 * Z[1::2]
    wZ[2::2] = 2.0 * h / 3.0 * Z[2::2]
    V = np.empty((K + 1, 2 * m), dtype=np.result_type(X0, Z))
    V[0] = X0 + h / 3.0 * Z[0]
    Vs = list(V)
    for Phi, prev, cur, w in zip(phis[1:], Vs, Vs[1:], wZ[1:]):
        Phi.dot(prev, out=cur)
        cur += w
    U = np.empty_like(V)
    U[0] = X0
    U[2::2] = V[2::2] - h / 3.0 * Z[2::2]
    duh = 0.5 * h * (phi[1] @ Z[0] + Z[1])
    duh[:m] = single_interval_duhamel(fs, op, a + 1, a, F, h)
    U[1] = phi[1] @ X0 + duh
    # odd k >= 3: slice d picks k - 3 + d for k = 3, 5, .., K
    n = (K - 1) // 2
    k3, k2, k1, k0 = (slice(d, d + 2 * n, 2) for d in range(4))
    c = 9.0 * h / 8.0
    y = U[k3] + 3.0 * h / 8.0 * Z[k3]
    y = _mv(phi[k2], y) + c * Z[k2]
    y = _mv(phi[k1], y) + c * Z[k1]
    U[k0] = _mv(phi[k0], y) + 3.0 * h / 8.0 * Z[k0]
    u[a:b + 1], v[a:b + 1] = U[:, :m], U[:, m:]
    return u, v


def solve(p, fs, grid):
    """Representation-formula solve on ``grid`` (each node an fs node) by
    :func:`representation`, which checks the table's kind."""
    grid, idx = _grid_indices(fs, grid)
    F = None
    if p.forcing is not None:
        F = np.array([np.asarray(p.forcing(t)) for t in fs.time_grid])
    u, v = representation(fs, p.op, p.u0, p.u1, F, stop=max(idx, default=0))
    return Trajectory(grid, u[idx], v[idx])


def direct_integrate(p, h, grid=None):
    """Integrate the full inhomogeneous block system; the oracle path.

    ``grid`` defaults to a uniform grid of step ~h over the horizon.  Each
    output interval is one :func:`propagator._span` call, the same RK4
    substep loop (steps of size <= h) that builds the interval maps of the
    tables, but applied to the forced state directly: no table is read, so
    the oracle stays independent of the representation formula.
    """
    if not (np.isfinite(h) and h > 0):
        raise ConfigurationError("step h must be finite and positive")
    if grid is None:
        n = max(1, int(np.ceil(p.horizon / h - 1e-12)))
        grid = np.linspace(0.0, p.horizon, n + 1)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or not (grid.size and np.all(np.isfinite(grid))
                                  and np.all(np.diff(grid) > 0)):
            raise ConfigurationError(
                "output grid must be one-dimensional, non-empty, finite and "
                "strictly increasing")
    m = p.op.dim
    forcing = None
    if p.forcing is not None:
        forcing = lambda t: np.asarray(p.forcing(t))
    state = np.concatenate([p.u0, p.u1])
    if forcing is not None:
        state = state.astype(np.result_type(state.dtype, forcing(0.0).dtype))
    u = np.empty((grid.size, m), dtype=state.dtype)
    v = np.empty((grid.size, m), dtype=state.dtype)
    u[0], v[0] = p.u0, p.u1
    for i in range(1, grid.size):
        state = _span(p.op, grid[i - 1], grid[i], state, h, forcing=forcing)
        u[i], v[i] = state[:m], state[m:]
    return Trajectory(grid, u, v)


def residual(traj, op, f=None):
    """Discrete L2(0,T;H) norm of u'' + B(t)u' + A(t)u - f along a
    trajectory.

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
    return float(np.sqrt(np.sum(np.abs(r) ** 2) * dt))
