"""Evolution families and fundamental solutions of the block systems.

A second-order problem u'' + B(t)u' + A(t)u = f reduces to the first-order
system U' = G(t)U + F with U = (u, u') and

    G(t) = [[0, I], [-A(t), -B(t)]],      F = (0, f).

The two-parameter solution operator E(t, s) of the homogeneous system is
tabulated on a time grid; its quadrants are C(t,s), S(t,s), dC(t,s), dS(t,s)
for the undamped family and v1..v4 for the damped one.  The integrator is
linear in the state, so each grid interval has one transition map Phi_j,
obtained by integrating an identity block across it, and every stored block
is a product of these maps, E(t_i, s_j) = Phi_i ... Phi_{j+1}.  The
composition identity E(t,s) = E(t,r)E(r,s) thus holds by construction up to
matmul rounding, and the axiom checks measure genuine integrator defects.

The integrator is the classical explicit fourth-order one-step method with
the matrix evaluated at the stage times; the step is fixed and validated
against the spectral radius of A before each run.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PropagationError

STABILITY_LIMIT = 2.5  # |omega * h| budget for the classical 4th-order method

_MAGIC = b"NLWFS001"


@dataclass(frozen=True)
class BlockOperator:
    """Suppliers of A(t) (and B(t) for damped problems) plus the dimension."""

    a_of_t: object
    b_of_t: object
    dim: int

    @property
    def kind(self):
        return "damped" if self.b_of_t is not None else "undamped"


def undamped_operator(a_of_t, dim):
    return BlockOperator(a_of_t, None, dim)


def damped_operator(a_of_t, b_of_t, dim):
    return BlockOperator(a_of_t, b_of_t, dim)


def reversed_operator(op, horizon):
    """Operator of the returned adjoint problem: A_r(t) = A(T - t)^H."""
    def a_r(t):
        return np.asarray(op.a_of_t(horizon - t)).conj().T
    b_r = None
    if op.b_of_t is not None:
        def b_r(t):
            return np.asarray(op.b_of_t(horizon - t)).conj().T
    return BlockOperator(a_r, b_r, op.dim)


def spectral_frequency(op, horizon, samples=5):
    """Largest oscillation frequency sqrt(||A(t)||) over sampled times."""
    freq = 0.0
    for t in np.linspace(0.0, horizon, samples):
        freq = max(freq, float(np.sqrt(np.linalg.norm(op.a_of_t(t), 2))))
        if op.b_of_t is not None:
            freq = max(freq, float(np.linalg.norm(op.b_of_t(t), 2)))
    return freq


def validate_step(op, horizon, h):
    if h <= 0:
        raise ConfigurationError("step size h must be positive")
    freq = spectral_frequency(op, horizon)
    if freq * h > STABILITY_LIMIT:
        raise ConfigurationError(
            f"step h={h:g} unstable for spectral frequency {freq:.4g} "
            f"(need h <= {STABILITY_LIMIT / freq:.4g})")


class _Stepper:
    """RK4 stages for the linear block system, reusing endpoint matrices."""

    def __init__(self, op, forcing=None):
        self.op = op
        self.m = op.dim
        self.forcing = forcing
        self._a_end = None
        self._b_end = None
        self._t_end = None

    def _mats(self, t):
        if self._t_end is not None and t == self._t_end:
            return self._a_end, self._b_end
        A = np.asarray(self.op.a_of_t(t))
        B = None if self.op.b_of_t is None else np.asarray(self.op.b_of_t(t))
        return A, B

    def _apply(self, A, B, X, t):
        m = self.m
        top = X[m:]
        bottom = -(A @ X[:m])
        if B is not None:
            bottom = bottom - B @ X[m:]
        if self.forcing is not None:
            f = self.forcing(t)
            bottom = bottom + (f if X.ndim == 1 else f[:, None])
        return np.concatenate([top, bottom], axis=0)

    def step(self, t, dt, X):
        A0, B0 = self._mats(t)
        Am, Bm = self._mats(t + 0.5 * dt)
        A1, B1 = self._mats(t + dt)
        self._t_end, self._a_end, self._b_end = t + dt, A1, B1
        k1 = self._apply(A0, B0, X, t)
        k2 = self._apply(Am, Bm, X + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = self._apply(Am, Bm, X + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = self._apply(A1, B1, X + dt * k3, t + dt)
        return X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _span(op, t0, t1, X, h, forcing=None, check_every_step=True):
    """Integrate from t0 to t1 (either direction) with substeps of size <= h."""
    if t1 == t0:
        return X
    n = max(1, int(np.ceil(abs(t1 - t0) / h - 1e-12)))
    dt = (t1 - t0) / n
    stepper = _Stepper(op, forcing)
    for k in range(n):
        X = stepper.step(t0 + k * dt, dt, X)
        if check_every_step and not np.all(np.isfinite(X)):
            raise PropagationError(
                f"non-finite state at step {k} (t ~ {t0 + (k + 1) * dt:.6g})",
                time=t0 + (k + 1) * dt, step_index=k)
    if not np.all(np.isfinite(X)):
        raise PropagationError(f"non-finite state reached at t={t1:.6g}", time=t1)
    return X


def propagate(op, s, t, U0, forcing=None, h=1e-3):
    """Propagate the block state from time s to t >= s.

    ``U0`` has shape (2m,) or (2m, k); ``forcing`` maps t to the second-block
    vector f(t).  Accuracy is O(h^4) for smooth coefficients.
    """
    if t < s:
        raise ConfigurationError("propagate requires s <= t")
    U0 = np.array(U0, dtype=np.result_type(np.asarray(U0).dtype, float))
    if U0.shape[0] != 2 * op.dim:
        raise ConfigurationError(
            f"state length {U0.shape[0]} does not match 2m={2 * op.dim}")
    return _span(op, s, t, U0, h, forcing=forcing)


class FundamentalSolution:
    """Tabulated blocks E(t_i, s_j) for grid pairs with s_j <= t_i.

    For undamped operators the quadrants of E are (C, S; dC, dS); for damped
    ones they are (v1, v2; v3, v4).  Both are exposed through the same
    accessors since they enter the representation formulas identically.
    The block bounds are computed on first use and kept, which is sound
    because the tables made by :func:`fundamental_solution` and
    :func:`load_fs` are read-only.
    """

    def __init__(self, time_grid, m, kind, blocks, h):
        self.time_grid = np.asarray(time_grid, dtype=float)
        self.m = m
        self.kind = kind
        self.blocks = blocks      # (P, 2m, 2m), pair (i, j) at i*(i+1)/2 + j
        self.h = h
        self._duhamel = None
        self._first_column = None

    @property
    def n_nodes(self):
        return self.time_grid.size

    @staticmethod
    def _index(i, j):
        return i * (i + 1) // 2 + j

    def E(self, i, j):
        if j > i:
            raise ConfigurationError("blocks are stored only for s <= t")
        return self.blocks[self._index(i, j)]

    def C(self, i, j):
        return self.E(i, j)[: self.m, : self.m]

    def S(self, i, j):
        return self.E(i, j)[: self.m, self.m:]

    def dC(self, i, j):
        return self.E(i, j)[self.m:, : self.m]

    def dS(self, i, j):
        return self.E(i, j)[self.m:, self.m:]

    # damped naming
    v1, v2, v3, v4 = C, S, dC, dS

    def node_index(self, t, tol=1e-10):
        i = int(np.argmin(np.abs(self.time_grid - t)))
        if abs(self.time_grid[i] - t) > tol:
            raise ConfigurationError(f"time {t!r} is not a grid node")
        return i

    def row(self, i):
        """Contiguous view of all blocks E(t_i, s_j), j = 0..i."""
        start = self._index(i, 0)
        return self.blocks[start:start + i + 1]

    def sup_norms(self):
        """Largest 2-norms of the four quadrants over all stored pairs."""
        m = self.m
        lo, hi = slice(None, m), slice(m, None)
        quadrants = {"C": (lo, lo), "S": (lo, hi), "dC": (hi, lo), "dS": (hi, hi)}
        return {k: float(np.linalg.norm(self.blocks[:, r, c], 2, axis=(1, 2)).max())
                for k, (r, c) in quadrants.items()}

    def duhamel_bound(self):
        """max over t of int_0^t ||S(t,s)|| ds (the constant M_{2,T})."""
        if self._duhamel is None:
            from . import quadrature
            norms = np.linalg.norm(self.blocks[:, : self.m, self.m:], 2,
                                   axis=(1, 2))
            best = 0.0
            for i in range(1, self.n_nodes):
                start = self._index(i, 0)
                vals = norms[start:start + i + 1]
                best = max(best, float(quadrature.integrate(
                    vals, self.time_grid[: i + 1])))
            self._duhamel = best
        return self._duhamel

    def first_column_bounds(self):
        """(M1, M2): the largest 2-norms of C(t_i, 0) and S(t_i, 0)."""
        if self._first_column is None:
            m = self.m
            first = self.blocks[self._index(np.arange(self.n_nodes), 0)]
            self._first_column = tuple(
                float(np.linalg.norm(first[:, : m, c], 2, axis=(1, 2)).max())
                for c in (slice(None, m), slice(m, None)))
        return self._first_column


def fundamental_solution(op, grid, h=1e-3, validate=True):
    """Tabulate E(t_i, s_j) on all grid pairs by composing interval maps.

    Interval j is integrated once, on a 2m x 2m identity, giving its RK4
    transition map Phi_j; row j of the table is then
    E(t_j, s_i) = Phi_j E(t_{j-1}, s_i) for i < j, with the exact identity
    on the diagonal.  Every stored pair is a product of the same interval
    maps, so the composition identity E(t,s) = E(t,r)E(r,s) holds by
    construction up to matmul rounding.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ConfigurationError("grid must be strictly increasing with >= 2 nodes")
    if validate:
        validate_step(op, float(grid[-1]), h)
    n2 = 2 * op.dim
    N = grid.size
    blocks = np.empty((N * (N + 1) // 2, n2, n2))
    blocks[0] = np.eye(n2)
    fs = FundamentalSolution(grid, op.dim, op.kind, blocks, h)
    for j in range(1, N):
        where = (f"fundamental solution failed between nodes {j - 1} and {j} "
                 f"(t in [{grid[j - 1]:.6g}, {grid[j]:.6g}])")
        try:
            phi = _transition(op, grid[j - 1], grid[j], h)
        except PropagationError as exc:
            raise PropagationError(f"{where}: {exc}", time=exc.time) from exc
        row = fs.row(j)
        np.matmul(phi, fs.row(j - 1)[:j - 1], out=row[:j - 1])
        if not np.all(np.isfinite(row[:j - 1])):
            raise PropagationError(
                f"{where}: non-finite blocks reached at t={grid[j]:.6g}",
                time=float(grid[j]))
        row[j - 1] = phi
        row[j] = np.eye(n2)
    blocks.flags.writeable = False
    return fs


def _transition(op, t_from, t_to, h):
    """Short-span transition map Phi with E(t_to, t_from) ~ Phi."""
    return _span(op, t_from, t_to, np.eye(2 * op.dim), h,
                 check_every_step=False)


@dataclass
class AxiomReport:
    """Maximal measured violations of the fundamental-solution axioms.

    Boundary values (S1) are exact by construction and reported for
    bookkeeping.  The second-derivative identities use centred differences
    with increment ``fd_delta``; the perturbed blocks come from composing
    stored blocks with short transition maps, so their global consistency is
    what ``composition_defect`` measures.  For damped families the s-side
    check is the backward evolution identity on the solution rows,
    d/ds (v1, v2) = (v2 A(s), v2 B(s) - v1), and the third-derivative
    entries are not separately defined.  ``lip_s``/``lip_c`` are the
    empirical Lipschitz constants of (S0)/(C0); ``sup_*`` record the uniform
    bounds of the quadrant families.
    """

    s1_defect: float
    s2a_defect: float
    s2b_defect: float
    s2c_defect: float
    s3a_defect: float | None
    s3b_defect: float | None
    s4_defect: float
    composition_defect: float
    lip_s: float
    lip_c: float
    sup_c: float
    sup_s: float
    sup_dc: float
    sup_ds: float
    fd_delta: float
    adjoint_defect: float | None = None


def check_axioms(fs, op, fd_delta=5e-5):
    """Measure the fundamental-solution axiom defects of a tabulated family."""
    if fs.n_nodes < 4:
        raise ConfigurationError("axiom check needs a grid with >= 4 nodes")
    grid = fs.time_grid
    m = fs.m
    N = fs.n_nodes
    eye = np.eye(m)
    damped = fs.kind == "damped"

    def worst(stack):
        return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())

    diag = fs.blocks[fs._index(np.arange(N), np.arange(N))]
    s1 = max(worst(diag[:, :m, m:]), worst(diag[:, :m, :m] - eye),
             worst(diag[:, m:, m:] - eye), worst(diag[:, m:, :m]))

    sup = fs.sup_norms()

    # empirical Lipschitz constants: E(t_{i+1}, s_j) - E(t_i, s_j) for every
    # j <= i at once
    lip_s = lip_c = 0.0
    for i in range(N - 1):
        diff = fs.row(i + 1)[:i + 1] - fs.row(i)
        dt = grid[i + 1] - grid[i]
        lip_s = max(lip_s, worst(diff[:, :m, m:]) / dt)
        lip_c = max(lip_c, worst(diff[:, :m, :m]) / dt)

    # composition E(t_i,t_k)E(t_k,s_j) = E(t_i,s_j) over all j <= k at once;
    # (S4), C(t,r)S(r,s) + S(t,r)dS(r,s) = S(t,s), is the upper-right
    # quadrant of the same product
    comp = 0.0
    s4 = 0.0
    for i in range(N):
        row_i = fs.row(i)
        for k in range(i + 1):
            defect = fs.E(i, k) @ fs.row(k) - row_i[:k + 1]
            comp = max(comp, worst(defect))
            s4 = max(s4, worst(defect[:, :m, m:]))

    # (S2)(a) and its C-block analogue, by +-delta refinement in t: the
    # short maps E(t +- delta, t) act on the whole row of blocks at t
    d = fd_delta
    s2a = 0.0
    s3a = 0.0
    for i in range(N):
        t = grid[i]
        E0 = fs.row(i)
        Ep = _transition(op, t, t + d, d) @ E0
        Em = _transition(op, t, t - d, d) @ E0
        A = np.asarray(op.a_of_t(t))
        dd = (Ep + Em - 2.0 * E0) / d ** 2
        res_s = dd[:, :m, m:] + A @ E0[:, :m, m:]
        res_c = dd[:, :m, :m] + A @ E0[:, :m, :m]
        if damped:
            B = np.asarray(op.b_of_t(t))
            res_s = res_s + B @ E0[:, m:, m:]
            res_c = res_c + B @ E0[:, m:, :m]
        s2a = max(s2a, worst(res_s))
        s3a = max(s3a, worst(res_c))

    # s-side identities: perturbed blocks E(t, s +- delta) are obtained by
    # composing the stored global block with short transition maps
    # E(s, s +- delta), the s-direction analogue of the refinement above;
    # their global consistency is covered by the composition defect.  The
    # maps are stacked per node s_j once, so row i is one batched matmul
    # against the stack's first i + 1 entries.
    phi_p = np.array([_transition(op, s + d, s, d) for s in grid])
    phi_m = np.array([_transition(op, s - d, s, d) for s in grid])
    phi_m2 = np.array([_transition(op, s - 2 * d, s, d) for s in grid])
    A = np.array([op.a_of_t(s) for s in grid])
    if damped:
        B = np.array([op.b_of_t(s) for s in grid])
        G = np.array([np.block([[np.zeros((m, m)), eye], [-a, -b]])
                      for a, b in zip(A, B)])
    s2b = 0.0
    s3b = 0.0 if not damped else None
    for i in range(N):
        E0 = fs.row(i)
        Ep = E0 @ phi_p[:i + 1]
        Em = E0 @ phi_m[:i + 1]
        if damped:
            # backward identity on the solution rows (v1, v2):
            # d/ds v1 = v2 A(s), d/ds v2 = v2 B(s) - v1
            back = (Ep[:, :m] - Em[:, :m]) / (2 * d) + E0[:, :m] @ G[:i + 1]
            s2b = max(s2b, worst(back))
        else:
            dd = (Ep + Em - 2.0 * E0) / d ** 2
            s2b = max(s2b, worst(dd[:, :m, m:] + E0[:, :m, m:] @ A[:i + 1]))
            s3b = max(s3b, worst(dd[:, m:, m:] + E0[:, m:, m:] @ A[:i + 1]))
    # (S2)(c): one-sided second-order estimate of d2S/dtds on the diagonal;
    # zero for the undamped family, B(s) for the damped one
    est = (3.0 * eye - 4.0 * phi_m[:, m:, m:] + phi_m2[:, m:, m:]) / (2.0 * d)
    s2c = worst(est - B if damped else est)

    return AxiomReport(
        s1_defect=float(s1), s2a_defect=float(s2a), s2b_defect=float(s2b),
        s2c_defect=float(s2c),
        s3a_defect=float(s3a),
        s3b_defect=None if damped else float(s3b),
        s4_defect=float(s4), composition_defect=float(comp),
        lip_s=float(lip_s), lip_c=float(lip_c),
        sup_c=sup["C"], sup_s=sup["S"], sup_dc=sup["dC"], sup_ds=sup["dS"],
        fd_delta=d)


def adjoint_defect(fs, fs_reversed):
    """max over stored pairs of ||S(t,s)^H - S_r(T-s, T-t)||.

    ``fs_reversed`` must be built for the returned-adjoint operator on the
    same uniform grid.
    """
    if fs.m != fs_reversed.m:
        raise ConfigurationError("dimension mismatch between the two families")
    grid = fs.time_grid
    if grid.size != fs_reversed.time_grid.size or \
            np.max(np.abs(grid - fs_reversed.time_grid)) > 1e-12:
        raise ConfigurationError("the two families must share one grid")
    T = grid[-1] + grid[0]
    if np.max(np.abs((T - grid)[::-1] - grid)) > 1e-9:
        raise ConfigurationError("adjoint check needs a reflection-symmetric grid")
    N = grid.size
    m = fs.m
    defect = 0.0
    for i in range(N):
        # row i against column N-1-i of the reversed table, all j <= i at once
        j = np.arange(i + 1)
        lhs = fs.row(i)[:, :m, m:].conj().transpose(0, 2, 1)
        rhs = fs_reversed.blocks[fs._index(N - 1 - j, N - 1 - i), :m, m:]
        defect = max(defect, float(np.linalg.norm(lhs - rhs, 2,
                                                  axis=(1, 2)).max()))
    return defect


def adjoint_check(fs, op, h=None):
    """Build the returned-adjoint family for ``op`` and measure the defect."""
    T = float(fs.time_grid[-1])
    fs_r = fundamental_solution(reversed_operator(op, T), fs.time_grid,
                                h=h or fs.h, validate=False)
    return adjoint_defect(fs, fs_r)


def dump_fs(fs, path):
    """Write the tabulated family to a little-endian binary file.

    Layout: magic, kind byte, m, node count, substep (f64), the grid, then
    the blocks row-major for pairs (i, j), j <= i, i ascending.
    """
    header = _MAGIC + struct.pack(
        "<BIId", 1 if fs.kind == "damped" else 0, fs.m, fs.n_nodes, fs.h)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (fs.time_grid, fs.blocks):
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))


def load_fs(path):
    off = len(_MAGIC) + struct.calcsize("<BIId")
    with open(path, "rb") as fh:
        head = fh.read(off)
        if head[:8] != _MAGIC or len(head) < off:
            raise ConfigurationError(f"{path} is not a fundamental-solution dump")
        kind_b, m, n, h = struct.unpack_from("<BIId", head, 8)
        p = n * (n + 1) // 2
        expected = off + 8 * (n + p * 4 * m * m)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ConfigurationError(
                f"{path} holds {size} bytes; its header (m={m}, {n} nodes) "
                f"needs exactly {expected}")
        grid = np.fromfile(fh, dtype="<f8", count=n)
        blocks = np.fromfile(fh, dtype="<f8", count=p * 4 * m * m)
    blocks.flags.writeable = False
    return FundamentalSolution(grid, m, "damped" if kind_b else "undamped",
                               blocks.reshape(p, 2 * m, 2 * m), h)
