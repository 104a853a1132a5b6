"""Evolution families and fundamental solutions of the block systems.

A second-order problem u'' + B(t)u' + A(t)u = f reduces to the first-order
system U' = G(t)U + F with U = (u, u') and

    G(t) = [[0, I], [-A(t), -B(t)]],      F = (0, f).

The two-parameter solution operator E(t, s) of the homogeneous system is
tabulated on a time grid; its quadrants are C(t,s), S(t,s), dC(t,s), dS(t,s)
for the undamped family and v1..v4 for the damped one, read through the
same C/S/dC/dS accessors.  The integrator is
linear in the state, so each grid interval has one transition map Phi_j,
obtained by integrating an identity block across it, and every block
is a product of these maps, E(t_i, s_j) = Phi_i ... Phi_{j+1}.  The
composition identity E(t,s) = E(t,r)E(r,s) thus holds by construction up to
matmul rounding, and the axiom checks measure genuine integrator defects.

The integrator is the classical explicit fourth-order one-step method with
the matrix evaluated at the stage times; the step is fixed and validated
against the spectral radius of A before each run.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import ConfigurationError, PropagationError

STABILITY_LIMIT = 2.5  # |omega * h| budget for the classical 4th-order method
FREQUENCY_SAMPLES = 5  # times at which spectral_frequency measures ||A(t)||
NODE_TOL = 1e-10       # how far a time may lie from the grid node it names
LOAD_TOL = 1e-12       # relative distance of a loaded row from its products
DUHAMEL_MARGIN = 1e-12  # relative slack of duhamel_bound's row upper bounds
MEMORY_SHARE = 0.5     # share of MemAvailable that a table may plan to take

_MEMINFO = "/proc/meminfo"

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


def spectral_frequency(op, horizon):
    """Largest oscillation frequency sqrt(||A(t)||) over sampled times."""
    freq = 0.0
    for t in np.linspace(0.0, horizon, FREQUENCY_SAMPLES):
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


def _span(op, t0, t1, X, h, forcing=None, check_every_step=True):
    """Integrate the block system from t0 to t1 (either direction) with
    classical RK4 substeps of size <= h; the one substep loop of the package.

    ``X`` is a state (2m,) or a stack of states (2m, k); ``forcing`` maps t
    to the second-block vector f(t).  The stage matrices are evaluated at
    each substep's start, midpoint and end, and a substep starting exactly
    where the previous one ended reuses that end's matrices.
    """
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


def table_bytes(m, n_nodes, audit=False):
    """Bytes a table of ``n_nodes`` nodes with 2m x 2m blocks needs at its
    peak: the interval maps and bands, the row being made and the row it is
    made from, and with ``audit`` every row of the grid held at once, as
    :func:`check_axioms` and :func:`adjoint_defect` hold them."""
    blocks = 5 * n_nodes
    if audit:
        blocks += n_nodes * (n_nodes + 1) // 2
    return blocks * 8 * (2 * m) ** 2


def memory_budget():
    """``MEMORY_SHARE`` of the MemAvailable line of /proc/meminfo, in bytes,
    or None where the file or the line is missing."""
    try:
        with open(_MEMINFO) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(MEMORY_SHARE * int(line.split()[1]) * 1024)
    except OSError:
        pass
    return None


def require_memory(m, n_nodes, audit=False):
    """Raise :class:`ConfigurationError` before a table larger than the
    :func:`memory_budget` is allocated."""
    need = table_bytes(m, n_nodes, audit)
    budget = memory_budget()
    if budget is not None and need > budget:
        raise ConfigurationError(
            f"a table with m={m} on {n_nodes} nodes needs about "
            f"{need / 2 ** 20:.0f} MiB, above the budget of "
            f"{budget / 2 ** 20:.0f} MiB ({MEMORY_SHARE:g} of MemAvailable)")


def _next_row(phi, prev):
    """Row j of a table from Phi_j and row j - 1: E(t_j, s_i) = Phi_j
    E(t_{j-1}, s_i) for i < j - 1, then Phi_j and the identity."""
    j = len(prev)
    row = np.empty((j + 1,) + phi.shape)
    np.matmul(phi, prev[:j - 1], out=row[:j - 1])
    row[j - 1] = phi
    row[j] = np.eye(len(phi))
    row.flags.writeable = False
    return row


class FundamentalSolution:
    """Blocks E(t_i, s_j) for grid pairs with s_j <= t_i.

    For undamped operators the quadrants of E are (C, S; dC, dS); for damped
    ones they are (v1, v2; v3, v4).  Both are read through the C/S/dC/dS
    accessors, since they enter the representation formulas identically.

    The table stores the interval maps and the two bands the Duhamel
    recurrence reads, O(N m^2) numbers: ``blocks[i, d]`` is
    E(t_i, t_{i-1-d}) for d = 0, 1, 2, so ``blocks[i, 0]`` is Phi_i; the
    slots with i - 1 - d < 0 hold zeros.  Every other block is made on
    demand by the products that filled the table: row i is Phi_i times
    row i - 1, followed by Phi_i and the identity.  The last row made is
    kept, so rows in ascending order cost one batched product each; a table
    from :func:`fundamental_solution` or :func:`load_fs` starts with the
    grid's last row, made by the fill, and one built through this
    constructor with none.  The block bounds are computed on first use and
    kept, which is sound because the tables made by
    :func:`fundamental_solution` and :func:`load_fs` are read-only.
    """

    def __init__(self, time_grid, m, kind, blocks, h):
        self.time_grid = np.asarray(time_grid, dtype=float)
        self.m = m
        self.kind = kind
        self.blocks = blocks      # (N, 3, 2m, 2m), E(t_i, t_{i-1-d}) at [i, d]
        self.h = h
        self._eye = np.eye(2 * m)
        self._eye.flags.writeable = False
        self._last = (0, self._eye[None])
        self._duhamel = None
        self._first_column = None

    @property
    def n_nodes(self):
        return self.time_grid.size

    def E(self, i, j):
        if not 0 <= j <= i < self.n_nodes:
            raise ConfigurationError(
                f"no block ({i}, {j}): need 0 <= j <= i < {self.n_nodes}")
        if i == j:
            return self._eye
        if i - j <= 3:
            return self.blocks[i, i - 1 - j]
        return self.row(i)[j]

    def C(self, i, j):
        return self.E(i, j)[: self.m, : self.m]

    def S(self, i, j):
        return self.E(i, j)[: self.m, self.m:]

    def dC(self, i, j):
        return self.E(i, j)[self.m:, : self.m]

    def dS(self, i, j):
        return self.E(i, j)[self.m:, self.m:]

    def node_index(self, t):
        i = int(np.argmin(np.abs(self.time_grid - t)))
        if abs(self.time_grid[i] - t) > NODE_TOL:
            raise ConfigurationError(f"time {t!r} is not a grid node")
        return i

    def row(self, i):
        """All blocks E(t_i, s_j), j = 0..i, as a read-only array of its own."""
        k, row = self._last
        if k > i:
            k, row = 0, self._eye[None]
        for j in range(k + 1, i + 1):
            row = _next_row(self.blocks[j, 0], row)
        self._last = (i, row)
        return row

    def sup_norms(self):
        """Largest 2-norms of the four quadrants over all pairs."""
        m = self.m
        lo, hi = slice(None, m), slice(m, None)
        quadrants = {"C": (lo, lo), "S": (lo, hi), "dC": (hi, lo), "dS": (hi, hi)}
        sup = dict.fromkeys(quadrants, 0.0)
        for i in range(self.n_nodes):
            row = self.row(i)
            for k, (r, c) in quadrants.items():
                sup[k] = max(sup[k], float(
                    np.linalg.norm(row[:, r, c], 2, axis=(1, 2)).max()))
        return sup

    def duhamel_bound(self):
        """max over t_i of int_0^t_i ||S(t_i,s)||_2 ds (the constant M_{2,T}).

        Exact 2-norms are taken only for the rows that can decide the
        maximum.  The last row made, which after :func:`fundamental_solution`
        and :func:`load_fs` is the grid's last row, is integrated exactly
        first, as the floor.  One ascending sweep then carries the 2m x m
        right halves Phi_i E(t_{i-1}, s_j)[:, m:] and integrates, for each
        row, the upper bound min(||S||_F, sqrt(||S||_1 ||S||_inf)) of
        ||S||_2.  Only a row whose upper integral times (1 + DUHAMEL_MARGIN)
        exceeds the best exact integral so far gets its own, from the whole
        row :meth:`row` makes; the margin covers the last-bit rounding by
        which the half products and the norms differ from the SVDs of the
        whole-row blocks.  The composite weights are positive, so a skipped
        row's exact integral cannot exceed the best one, and the result is
        the same float as the maximum over the exact integrals of every row.
        """
        if self._duhamel is None:
            m, grid = self.m, self.time_grid

            def exact(i, row):
                vals = np.linalg.norm(row[:, :m, m:], 2, axis=(1, 2))
                return float(quadrature.integrate(vals, grid[:i + 1]))

            k, row = self._last
            best = exact(k, row) if k else 0.0
            half = self._eye[None, :, m:]
            for i in range(1, self.n_nodes):
                phi = self.blocks[i, 0]
                prev, half = half, np.empty((i + 1, 2 * m, m))
                np.matmul(phi, prev[:i - 1], out=half[:i - 1])
                half[i - 1] = phi[:, m:]
                half[i] = self._eye[:, m:]
                if i == k:
                    continue
                s = np.abs(half[:, :m])
                one, inf = s.sum(axis=1).max(axis=1), s.sum(axis=2).max(axis=1)
                upper = np.minimum(np.sqrt(np.sum(s * s, axis=(1, 2))),
                                   np.sqrt(one * inf))
                bound = float(quadrature.integrate(upper, grid[:i + 1]))
                if bound * (1.0 + DUHAMEL_MARGIN) > best:
                    best = max(best, exact(i, self.row(i)))
            self._duhamel = best
        return self._duhamel

    def first_column_bounds(self):
        """(M1, M2): the largest 2-norms of C(t_i, 0) and S(t_i, 0)."""
        if self._first_column is None:
            m = self.m
            first = [self._eye, self.blocks[1, 0]]
            for i in range(2, self.n_nodes):
                first.append(self.blocks[i, 0] @ first[-1])
            first = np.array(first)
            self._first_column = tuple(
                float(np.linalg.norm(first[:, : m, c], 2, axis=(1, 2)).max())
                for c in (slice(None, m), slice(m, None)))
        return self._first_column


def _bands(row):
    """The band blocks E(t_i, t_{i-1-d}), d = 0, 1, 2, of row i."""
    i = len(row) - 1
    return row[max(i - 3, 0):i][::-1]


def fundamental_solution(op, grid, h=1e-3, validate=True):
    """Tabulate E(t_i, s_j) on all grid pairs by composing interval maps.

    Interval j is integrated once, on a 2m x 2m identity, giving its RK4
    transition map Phi_j; row j of the table is then
    E(t_j, s_i) = Phi_j E(t_{j-1}, s_i) for i < j, with the exact identity
    on the diagonal.  Every pair is a product of the same interval maps, so
    the composition identity E(t,s) = E(t,r)E(r,s) holds by construction up
    to matmul rounding.  Each row is made once here, to check that the
    products stay finite, and only its bands are kept, apart from the last
    row, which the table keeps as its cached row.  :func:`require_memory`
    checks the table's size before anything is allocated.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ConfigurationError("grid must be strictly increasing with >= 2 nodes")
    require_memory(op.dim, grid.size)
    if validate:
        validate_step(op, float(grid[-1]), h)
    n2 = 2 * op.dim
    N = grid.size
    blocks = np.zeros((N, 3, n2, n2))
    row = np.eye(n2)[None]
    for j in range(1, N):
        where = (f"fundamental solution failed between nodes {j - 1} and {j} "
                 f"(t in [{grid[j - 1]:.6g}, {grid[j]:.6g}])")
        try:
            phi = _transition(op, grid[j - 1], grid[j], h)
        except PropagationError as exc:
            raise PropagationError(f"{where}: {exc}", time=exc.time) from exc
        row = _next_row(phi, row)
        if not np.all(np.isfinite(row[:j - 1])):
            raise PropagationError(
                f"{where}: non-finite blocks reached at t={grid[j]:.6g}",
                time=float(grid[j]))
        band = _bands(row)
        blocks[j, :len(band)] = band
    blocks.flags.writeable = False
    fs = FundamentalSolution(grid, op.dim, op.kind, blocks, h)
    fs._last = (N - 1, row)
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
    """Measure the fundamental-solution axiom defects of a tabulated family.

    One pass over the rows i of the table checks every grid pair
    (i, j), j <= i, of the row at once: (S2)(a) and its C-block analogue
    by +-delta refinement in t, through the short maps E(t_i +- delta, t_i)
    built for the row; the empirical Lipschitz constants against row i - 1;
    composition E(t_i,t_k)E(t_k,s_j) = E(t_i,s_j) and its upper-right
    quadrant (S4) for every middle node k; and the s-side identities
    through the maps E(s_j, s_j +- delta), built once per node.  A(t) (and
    B(t) for damped families) is assembled once per node and shared by
    both sides.  Composition reads every row at every row, so the rows are
    made in one ascending pass and held: O(N^2 m^2) memory, meant for the
    coarse audit grid (11 nodes in the CLI).
    """
    if fs.n_nodes < 4:
        raise ConfigurationError("axiom check needs a grid with >= 4 nodes")
    require_memory(fs.m, fs.n_nodes, audit=True)
    grid = fs.time_grid
    m = fs.m
    N = fs.n_nodes
    eye = np.eye(m)
    damped = fs.kind == "damped"
    d = fd_delta

    def worst(stack):
        return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())

    rows = [fs.row(i) for i in range(N)]
    diag = np.array([row[-1] for row in rows])
    s1 = max(worst(diag[:, :m, m:]), worst(diag[:, :m, :m] - eye),
             worst(diag[:, m:, m:] - eye), worst(diag[:, m:, :m]))

    sup = fs.sup_norms()

    A = np.array([op.a_of_t(s) for s in grid])
    if damped:
        B = np.array([op.b_of_t(s) for s in grid])
        G = np.array([np.block([[np.zeros((m, m)), eye], [-a, -b]])
                      for a, b in zip(A, B)])
    # perturbed blocks E(t, s +- delta) compose the table's block with the
    # short maps E(s, s +- delta); their global consistency is what the
    # composition defect covers
    phi_p, phi_m, phi_m2 = (np.array([_transition(op, s + e, s, d)
                                      for s in grid]) for e in (d, -d, -2 * d))

    lip_s = lip_c = comp = s4 = s2a = s3a = s2b = s3b = 0.0
    for i in range(N):
        E0 = rows[i]
        # (S2)(a) and its C-block analogue: E(t_i +- delta, t_i) E0
        t = grid[i]
        Ep = _transition(op, t, t + d, d) @ E0
        Em = _transition(op, t, t - d, d) @ E0
        dd = (Ep + Em - 2.0 * E0) / d ** 2
        res_s = dd[:, :m, m:] + A[i] @ E0[:, :m, m:]
        res_c = dd[:, :m, :m] + A[i] @ E0[:, :m, :m]
        if damped:
            res_s = res_s + B[i] @ E0[:, m:, m:]
            res_c = res_c + B[i] @ E0[:, m:, :m]
        s2a = max(s2a, worst(res_s))
        s3a = max(s3a, worst(res_c))

        # empirical Lipschitz constants against row i - 1
        if i:
            diff = E0[:i] - rows[i - 1]
            dt = grid[i] - grid[i - 1]
            lip_s = max(lip_s, worst(diff[:, :m, m:]) / dt)
            lip_c = max(lip_c, worst(diff[:, :m, :m]) / dt)

        # composition through every middle node k; (S4),
        # C(t,r)S(r,s) + S(t,r)dS(r,s) = S(t,s), is its upper-right quadrant
        for k in range(i + 1):
            defect = E0[k] @ rows[k] - E0[:k + 1]
            comp = max(comp, worst(defect))
            s4 = max(s4, worst(defect[:, :m, m:]))

        # s-side: E0 E(s_j, s_j +- delta) for j <= i
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
    """max over grid pairs of ||S(t,s)^H - S_r(T-s, T-t)||.

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
    require_memory(fs.m, N, audit=True)
    m = fs.m
    rows_r = [fs_reversed.row(k) for k in range(N)]
    defect = 0.0
    for i in range(N):
        # row i against column N-1-i of the reversed table, all j <= i at once
        lhs = fs.row(i)[:, :m, m:].conj().transpose(0, 2, 1)
        rhs = np.array([rows_r[N - 1 - j][N - 1 - i, :m, m:]
                        for j in range(i + 1)])
        defect = max(defect, float(np.linalg.norm(lhs - rhs, 2,
                                                  axis=(1, 2)).max()))
    return defect


def adjoint_check(fs, op):
    """Build the returned-adjoint family for ``op`` with the table's own
    substep and measure the defect."""
    T = float(fs.time_grid[-1])
    fs_r = fundamental_solution(reversed_operator(op, T), fs.time_grid,
                                h=fs.h, validate=False)
    return adjoint_defect(fs, fs_r)


def dump_fs(fs, path):
    """Write the tabulated family to a little-endian binary file.

    Layout: magic, kind byte, m, node count, substep (f64), the grid, then
    the blocks row-major for pairs (i, j), j <= i, i ascending; the rows are
    made and written one at a time.
    """
    header = _MAGIC + struct.pack(
        "<BIId", 1 if fs.kind == "damped" else 0, fs.m, fs.n_nodes, fs.h)
    rows = map(fs.row, range(fs.n_nodes))
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in itertools.chain([fs.time_grid], rows):
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))


def load_fs(path):
    """Read a :func:`dump_fs` file, one row at a time.

    The table keeps the file's interval maps and bands, and as its cached
    row the last of its own products.  Every row of the file, the diagonal
    included, must equal the table's own product of its interval maps to
    within ``LOAD_TOL`` times the row's largest entry; otherwise the file is
    rejected with :class:`ConfigurationError`, as it is when the header
    names a table above :func:`memory_budget`.
    """
    off = len(_MAGIC) + struct.calcsize("<BIId")
    with open(path, "rb") as fh:
        head = fh.read(off)
        if head[:8] != _MAGIC or len(head) < off:
            raise ConfigurationError(f"{path} is not a fundamental-solution dump")
        kind_b, m, n, h = struct.unpack_from("<BIId", head, 8)
        if kind_b > 1 or m < 1 or n < 2 or not (np.isfinite(h) and h > 0):
            raise ConfigurationError(
                f"{path} has a corrupt header (kind byte {kind_b}, m={m}, "
                f"{n} nodes, h={h!r})")
        expected = off + 8 * (n + n * (n + 1) // 2 * 4 * m * m)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ConfigurationError(
                f"{path} holds {size} bytes; its header (m={m}, {n} nodes) "
                f"needs exactly {expected}")
        require_memory(m, n)
        grid = np.fromfile(fh, dtype="<f8", count=n)
        if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
            raise ConfigurationError(
                f"{path} holds a grid that is not finite and increasing")
        blocks = np.zeros((n, 3, 2 * m, 2 * m))
        own = np.eye(2 * m)[None]
        for i in range(n):
            row = np.fromfile(fh, dtype="<f8", count=(i + 1) * 4 * m * m)
            row = row.reshape(i + 1, 2 * m, 2 * m)
            if i:
                own = _next_row(row[i - 1], own)
            with np.errstate(invalid="ignore", over="ignore"):
                sound = np.abs(row - own).max() <= LOAD_TOL * np.abs(row).max()
            if not sound:
                raise ConfigurationError(
                    f"{path}: row {i} is not the product of its interval maps")
            band = _bands(row)
            blocks[i, :len(band)] = band
    blocks.flags.writeable = False
    fs = FundamentalSolution(grid, m, "damped" if kind_b else "undamped",
                             blocks, h)
    fs._last = (n - 1, own)
    return fs
