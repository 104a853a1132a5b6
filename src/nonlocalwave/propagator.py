"""Evolution families and fundamental solutions of the block systems.

A second-order problem u'' + B(t)u' + A(t)u = f reduces to the first-order
system U' = G(t)U + F with U = (u, u') and

    G(t) = [[0, I], [-A(t), -B(t)]],      F = (0, f).

The two-parameter solution operator E(t, s) of the homogeneous system is
tabulated on a time grid; its quadrants are C(t,s), S(t,s), dC(t,s), dS(t,s)
for the undamped family and v1..v4 for the damped one, read through the
same C/S/dC/dS accessors.  The integrator is linear in the state, so each
grid interval has one transition map Phi_j, obtained by integrating an
identity block across it.  The table stores these maps and nothing else,
and so does a :func:`dump_fs` file, with a sha256 digest; every other block
is a product of them, E(t_i, s_j) = Phi_i ... Phi_{j+1}.  The composition
identity E(t,s) = E(t,r)E(r,s) thus holds by construction up to matmul
rounding, and the axiom checks measure genuine integrator defects.

The integrator is the classical explicit fourth-order one-step method with
the matrix evaluated at the stage times; the step is fixed and validated
against the spectral radius of A before each run.

An operator whose A(t) and B(t) are diagonal at every t, as a form with
coefficients over t alone gives on the Neumann eigenbasis, carries its
:class:`Diagonals`.  Its system is then m independent 2 x 2 systems, one per
mode, and its interval maps are integrated as one (N - 1, m, 2, 2) stack,
O(N m) per substep instead of O(N m^3) in all; the table keeps the stack as
``modes`` and takes its bounds from it, and the prefix products of the
stack, :meth:`FundamentalSolution.scan_factors`, let the representation
formula run as a prefix scan, O(N m) per evaluation.  Every other operator,
and a table read by :func:`load_fs`, keeps the dense maps alone.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import ConfigurationError, PropagationError

STABILITY_LIMIT = 2.5  # |omega * h| budget for the classical 4th-order method
FREQUENCY_SAMPLES = 5  # times at which spectral_frequency measures ||A(t)||
NODE_TOL = 1e-10       # how far a time may lie from the grid node it names
DUHAMEL_MARGIN = 1e-12  # relative slack of duhamel_bound's row upper bounds
FLOOR_SLACK = 1e-9     # relative slack of duhamel_bound's backward floor
MEMORY_SHARE = 0.5     # share of MemAvailable that a table may plan to take
# a table is made without its rows while _log_growth_bound stays below half
# the exponent range of a float; the other half absorbs the rounding of the
# products it bounds
OVERFLOW_LOG_LIMIT = 0.5 * float(np.log(np.finfo(float).max))
# largest max_i ||P_i|| max_j ||P_j^-1|| of a mode (see _scan_growth) for
# which a mode table's representation formula takes the prefix scan: on
# damped diagonal tables the scan stayed within 4.5e-14 of the node loop's
# largest entry up to 1.8e3, and reached 1.5e-13 at 7.1e3; the shipped
# scenarios read 2.04 and 2.72 at every m
SCAN_LIMIT = 2e3

_UNMADE = object()

_MEMINFO = "/proc/meminfo"

_MAGIC = b"NLWFS002"


@dataclass(frozen=True)
class Diagonals:
    """The diagonals of A(t) and B(t) of an operator whose matrices are
    diagonal at every t, each a sum of theta(t) d over its terms.

    ``a_terms`` and ``b_terms`` (None for an undamped operator) hold
    (theta, d) pairs: theta maps an array of times to values of its shape
    (or to one number), d is an (m,) vector.  The terms are summed in their
    order, from zero, as the matrix suppliers sum theirs.
    """

    a_terms: tuple
    b_terms: tuple | None

    def reflected(self, horizon):
        """The diagonals at horizon - t."""
        def flip(terms):
            return None if terms is None else tuple(
                (lambda t, f=theta: f(horizon - t), d) for theta, d in terms)
        return Diagonals(flip(self.a_terms), flip(self.b_terms))


def _diagonal(terms, times, m):
    """The (..., m) sum of a :class:`Diagonals` term tuple at ``times``."""
    out = np.zeros(times.shape + (m,))
    for theta, d in terms:
        out += np.multiply.outer(np.broadcast_to(theta(times), times.shape), d)
    return out


@dataclass(frozen=True)
class BlockOperator:
    """Suppliers of A(t) (and B(t) for damped problems) plus the dimension.

    ``diagonals``, when given, are those of A(t) and B(t) at every t, which
    :func:`fundamental_solution` then integrates mode by mode.
    """

    a_of_t: object
    b_of_t: object
    dim: int
    diagonals: Diagonals | None = None

    @property
    def kind(self):
        return "damped" if self.b_of_t is not None else "undamped"


def undamped_operator(a_of_t, dim):
    return BlockOperator(a_of_t, None, dim)


def damped_operator(a_of_t, b_of_t, dim):
    return BlockOperator(a_of_t, b_of_t, dim)


def reversed_operator(op, horizon):
    """Operator of the returned adjoint problem: A_r(t) = A(T - t)^H, with
    the diagonals, if any, at T - t."""
    def a_r(t):
        return np.asarray(op.a_of_t(horizon - t)).conj().T
    b_r = None
    if op.b_of_t is not None:
        def b_r(t):
            return np.asarray(op.b_of_t(horizon - t)).conj().T
    return BlockOperator(a_r, b_r, op.dim, None if op.diagonals is None
                         else op.diagonals.reflected(horizon))


def spectral_frequency(op, horizon):
    """Largest oscillation frequency sqrt(||A(t)||) over sampled times.

    With :class:`Diagonals`, ||A(t)||_2 = max_k |a_k(t)| and likewise for
    B(t); any other operator takes SVD 2-norms."""
    times = np.linspace(0.0, horizon, FREQUENCY_SAMPLES)
    if op.diagonals is not None:
        a, b = op.diagonals.a_terms, op.diagonals.b_terms
        freq = float(np.sqrt(np.abs(_diagonal(a, times, op.dim)).max()))
        if b is not None:
            freq = max(freq, float(np.abs(_diagonal(b, times, op.dim)).max()))
        return freq
    freq = 0.0
    for t in times:
        freq = max(freq, float(np.sqrt(np.linalg.norm(op.a_of_t(t), 2))))
        if op.b_of_t is not None:
            freq = max(freq, float(np.linalg.norm(op.b_of_t(t), 2)))
    return freq


def validate_step(op, horizon, h):
    """Reject a step above the stability budget; :func:`_span` rejects
    one that is not finite and positive."""
    freq = spectral_frequency(op, horizon)
    if freq * h > STABILITY_LIMIT:
        raise ConfigurationError(
            f"step h={h:g} unstable for spectral frequency {freq:.4g} "
            f"(need h <= {STABILITY_LIMIT / freq:.4g})")


def _check_step(t0, t1, h):
    if not (np.isfinite(h) and h > 0 and np.isfinite(t0) and np.isfinite(t1)):
        raise ConfigurationError(
            f"need a finite positive step and finite ends, got h={h!r} "
            f"from t={t0!r} to t={t1!r}")


def _substeps(t0, t1, h):
    """RK4 substeps of size <= h from t0 to t1, before the floor of 1."""
    return np.ceil(np.abs(t1 - t0) / h - 1e-12)


def _span(op, t0, t1, X, h, forcing=None, check_every_step=True):
    """Integrate the block system from t0 to t1 (either direction) with
    classical RK4 substeps of size <= h; the one dense substep loop of the
    package, whose mode-by-mode counterpart is :func:`_mode_span`.

    ``X`` is a state (2m,) or a stack of states (2m, k); ``forcing`` maps t
    to the second-block vector f(t).  The stage matrices are evaluated at
    each substep's start, midpoint and end, and a substep starting exactly
    where the previous one ended reuses that end's matrices.  The stages
    are written into buffers made once per call, the caller's ``X`` is not
    written, and -A(t), -B(t) are formed once per stage time:
    (-A) @ x is -(A @ x) bit for bit, so the result is the one of the
    out-of-place expression X + dt/6 (k1 + 2 k2 + 2 k3 + k4).  A step that
    is not finite and positive, or an end that is not finite, raises
    :class:`ConfigurationError`.
    """
    _check_step(t0, t1, h)
    if t1 == t0:
        return X
    n = max(1, int(_substeps(t0, t1, h)))
    dt = (t1 - t0) / n
    m = op.dim

    def mats(t):
        neg_a = -np.asarray(op.a_of_t(t))
        neg_b = None if op.b_of_t is None else -np.asarray(op.b_of_t(t))
        return neg_a, neg_b

    # the stages take the dtype the out-of-place sums reach: a complex A,
    # B or f makes a real state complex
    t_end, end = t0, mats(t0)
    dtype = np.result_type(X, *(M for M in end if M is not None))
    if forcing is not None:
        dtype = np.result_type(dtype, forcing(t0))
    X = np.array(X, dtype=dtype)
    k1, k2, k3, k4, Y = (np.empty_like(X) for _ in range(5))
    damp = None if op.b_of_t is None else np.empty_like(X[m:])

    def stage(neg_a, neg_b, Y, t, k):
        """k = G(t) Y + (0, f(t))."""
        k[:m] = Y[m:]
        bottom = k[m:]
        np.matmul(neg_a, Y[:m], out=bottom)
        if neg_b is not None:
            bottom += np.matmul(neg_b, Y[m:], out=damp)
        if forcing is not None:
            f = forcing(t)
            bottom += f if Y.ndim == 1 else f[:, None]

    for step in range(n):
        t = t0 + step * dt
        A0, B0 = end if t == t_end else mats(t)
        Am, Bm = mats(t + 0.5 * dt)
        t_end, end = t + dt, mats(t + dt)
        A1, B1 = end
        stage(A0, B0, X, t, k1)
        np.multiply(k1, 0.5 * dt, out=Y)
        Y += X
        stage(Am, Bm, Y, t + 0.5 * dt, k2)
        np.multiply(k2, 0.5 * dt, out=Y)
        Y += X
        stage(Am, Bm, Y, t + 0.5 * dt, k3)
        np.multiply(k3, dt, out=Y)
        Y += X
        stage(A1, B1, Y, t + dt, k4)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= dt / 6.0
        X += k1
        if check_every_step and not np.all(np.isfinite(X)):
            raise PropagationError(
                f"non-finite state at step {step} "
                f"(t ~ {t0 + (step + 1) * dt:.6g})",
                time=t0 + (step + 1) * dt, step_index=step)
    if not np.all(np.isfinite(X)):
        raise PropagationError(f"non-finite state reached at t={t1:.6g}", time=t1)
    return X


def propagate(op, s, t, U0, forcing=None, h=1e-3):
    """Propagate the block state from time s to t >= s.

    ``U0`` has shape (2m,) or (2m, k); ``forcing`` maps t to the second-block
    vector f(t).  Accuracy is O(h^4) for smooth coefficients.
    """
    if not s <= t:
        raise ConfigurationError("propagate requires s <= t")
    U0 = np.array(U0, dtype=np.result_type(np.asarray(U0).dtype, float))
    if U0.shape[0] != 2 * op.dim:
        raise ConfigurationError(
            f"state length {U0.shape[0]} does not match 2m={2 * op.dim}")
    return _span(op, s, t, U0, h, forcing=forcing)


def table_bytes(m, n_nodes, audit=False, modes=False):
    """Bytes a table of ``n_nodes`` nodes with 2m x 2m blocks needs at its
    peak: the interval maps, plus the row being made and the row it is made
    from, as :meth:`FundamentalSolution.row` and a fill or load whose
    overflow certificate fails hold them, and with ``audit`` every row of
    the grid held at once, as :func:`check_axioms` and
    :func:`adjoint_defect` hold them.  With ``modes``, the table's mode
    stack and the two factor arrays of
    :meth:`FundamentalSolution.scan_factors`, (N, m, 2, 2) each, are
    added."""
    blocks = 3 * n_nodes
    if audit:
        blocks += n_nodes * (n_nodes + 1) // 2
    stacks = 3 * n_nodes * 4 * m if modes else 0
    return (blocks * (2 * m) ** 2 + stacks) * 8


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


def require_memory(m, n_nodes, audit=False, modes=False):
    """Raise :class:`ConfigurationError` before a table larger than the
    :func:`memory_budget` is allocated."""
    need = table_bytes(m, n_nodes, audit, modes)
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


def _prefix_products(modes):
    """P[i] = Phi_i ... Phi_1 of an (N, m, 2, 2) mode stack, P[0] = I:
    one batched 2 x 2 product per node."""
    P = np.empty(modes.shape)
    P[0] = np.eye(2)
    for i in range(1, len(modes)):
        np.matmul(modes[i], P[i - 1], out=P[i])
    return P


def _scan_factors(modes):
    """(P, Q) of :meth:`FundamentalSolution.scan_factors` from a mode stack,
    or None where :func:`_scan_growth` exceeds ``SCAN_LIMIT`` or is not
    finite."""
    P = _prefix_products(modes)
    adj = np.empty_like(P)
    adj[..., 0, 0], adj[..., 1, 1] = P[..., 1, 1], P[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -P[..., 0, 1], -P[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = P[..., 0, 0] * P[..., 1, 1] - P[..., 0, 1] * P[..., 1, 0]
        Q = adj / det[..., None, None]
        growth = _scan_growth(P, Q)
    if not (np.isfinite(growth) and growth <= SCAN_LIMIT):
        return None
    return tuple(np.ascontiguousarray(X.transpose(0, 2, 3, 1)) for X in (P, Q))


def _scan_growth(P, Q):
    """max over modes of max_i ||P_i|| max_j ||Q_j|| for (N, m, 2, 2)
    stacks, in each mode's balanced norm ||X|| = ||D X D^-1||_F.

    D = diag(d, 1), with d^2 the ratio of the largest |entry (1, 0)| to the
    largest |entry (0, 1)| over P and Q (1 where either is 0), weighs a
    displacement like its velocity: an undamped mode of frequency w has
    d = w and products of norm 1, however large w.  Rounding in the scan is
    componentwise, so it does not see that scaling; it grows with the damping
    a mode's products undo.
    """
    r10, r01 = (np.maximum(np.abs(P[..., r, c]).max(axis=0),
                           np.abs(Q[..., r, c]).max(axis=0))
                for r, c in ((1, 0), (0, 1)))
    ok = (r10 > 0) & (r01 > 0) & np.isfinite(r10) & np.isfinite(r01)
    d = np.sqrt(np.where(ok, r10, 1.0) / np.where(ok, r01, 1.0))

    def largest(X):
        Y = X.copy()
        Y[..., 0, 1] *= d
        Y[..., 1, 0] /= d
        return np.sqrt((Y ** 2).sum(axis=(2, 3))).max(axis=0)
    return float((largest(P) * largest(Q)).max())


def _mv2(M, x):
    """Mode-by-mode 2 x 2 mat-vecs: M (..., 2, 2, m) times x (..., 2, m)."""
    terms = M * x[..., None, :, :]
    return terms[..., 0, :] + terms[..., 1, :]


class _MapWindow:
    """The dense interval maps Phi_{a+k}, k = 0..K, of a window a..b = a + K
    of a table, as the representation formula's recurrence reads them."""

    def __init__(self, phi):
        self.phi = phi

    def chain(self, V0, C=None):
        """(K + 1, 2m) states V_0 = V0, V_k = Phi_{a+k} V_{k-1} + C[k - 1]
        (C None: no C term), one in-place gemv per node."""
        V = np.empty((len(self.phi), V0.size),
                     dtype=np.result_type(V0, float if C is None else C))
        V[0] = V0
        # the node loop runs over views; ndarray.dot into ``out`` is the
        # same gemv as np.matmul, the same floats, at less cost per call
        Vs = list(V)
        if C is None:
            for Phi, prev, cur in zip(self.phi[1:], Vs, Vs[1:]):
                Phi.dot(prev, out=cur)
        else:
            for Phi, prev, cur, c in zip(self.phi[1:], Vs, Vs[1:], C):
                Phi.dot(prev, out=cur)
                cur += c
        return V

    def mv(self, k, x):
        """Phi_{a+k} x for one node k and state x, or mat-vecs stacked over
        a slice k of nodes and a stack x of states."""
        phi = self.phi[k]
        return phi @ x if phi.ndim == 2 else (phi @ x[..., None])[..., 0]


class _ScanWindow:
    """The same recurrence on a mode table, as a prefix scan.

    A state (2m,) = (u, v) is read as (2, m), so mode k's 2 x 2 block acts
    on (u_k, v_k), and with P_i = Phi_i ... Phi_1 the chain is
    V_k = P_{a+k} (P_a^-1 V0 + sum_{j<=k} P_{a+j}^-1 C[j - 1]): elementwise
    2 x 2 products and one cumsum, no loop over nodes.
    """

    def __init__(self, phi, P, Q):
        self.phi, self.P, self.Q = phi, P, Q     # (K + 1, 2, 2, m) each

    def chain(self, V0, C=None):
        K, m = len(self.P) - 1, self.P.shape[-1]
        start = _mv2(self.Q[0], V0.reshape(2, m))
        if C is None:
            V = _mv2(self.P, start)
        else:
            acc = np.empty((K + 1, 2, m), dtype=np.result_type(start, C))
            acc[0] = start
            acc[1:] = _mv2(self.Q[1:], C.reshape(K, 2, m))
            V = _mv2(self.P, np.cumsum(acc, axis=0, out=acc))
        V = V.reshape(K + 1, 2 * m)
        V[0] = V0
        return V

    def mv(self, k, x):
        shape = x.shape
        return _mv2(self.phi[k], x.reshape(shape[:-1] + (2, shape[-1] // 2))
                    ).reshape(shape)


class FundamentalSolution:
    """Blocks E(t_i, s_j) for grid pairs with s_j <= t_i.

    For undamped operators the quadrants of E are (C, S; dC, dS); for damped
    ones they are (v1, v2; v3, v4).  Both are read through the C/S/dC/dS
    accessors, since they enter the representation formulas identically.

    The table stores only the interval maps, O(N m^2) numbers:
    ``blocks[i]`` is Phi_i = E(t_i, t_{i-1}), and ``blocks[0]`` is an
    unused zero slot.  Every other block is made on demand: row i is Phi_i
    times row i - 1, followed by Phi_i and the identity.  The last row made
    is kept, so rows in ascending order cost one batched product each.  The
    block bounds are computed on first use and kept, which is sound because
    the tables made by :func:`fundamental_solution` and :func:`load_fs` are
    read-only.  ``modes``, the (N, m, 2, 2) mode blocks of maps that are
    zero off them, is kept where :func:`fundamental_solution` made them
    and None otherwise; the bounds are then read from it, and so are the
    scan factors that :meth:`window` hands the representation formula.
    The blocks stay dense either way, since :meth:`row`,
    :func:`check_axioms`, :func:`adjoint_defect` and :func:`dump_fs` read
    them.  The startup blocks and window steps of the representation
    formula are kept per node and window.
    """

    def __init__(self, time_grid, m, kind, blocks, h, modes=None):
        self.time_grid = np.asarray(time_grid, dtype=float)
        self.m = m
        self.kind = kind
        self.blocks = blocks      # (N, 2m, 2m), Phi_i at [i]
        self.h = h
        self.modes = modes        # (N, m, 2, 2) mode blocks of Phi_i, or None
        self._eye = np.eye(2 * m)
        self._eye.flags.writeable = False
        self._last = (0, self._eye[None])
        self._duhamel = None
        self._first_column = None
        self._scan = _UNMADE
        self._steps = {}
        self._startup = {}

    @property
    def n_nodes(self):
        return self.time_grid.size

    def E(self, i, j):
        if not 0 <= j <= i < self.n_nodes:
            raise ConfigurationError(
                f"no block ({i}, {j}): need 0 <= j <= i < {self.n_nodes}")
        if i == j:
            return self._eye
        if i - j == 1:
            return self.blocks[i]
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
        if not abs(self.time_grid[i] - t) <= NODE_TOL:
            raise ConfigurationError(f"time {t!r} is not a grid node")
        return i

    def row(self, i):
        """All blocks E(t_i, s_j), j = 0..i, as a read-only array of its own."""
        if not 0 <= i < self.n_nodes:
            raise ConfigurationError(
                f"no row {i}: need 0 <= i < {self.n_nodes}")
        k, row = self._last
        if k > i:
            k, row = 0, self._eye[None]
        for j in range(k + 1, i + 1):
            row = _next_row(self.blocks[j], row)
        self._last = (i, row)
        return row

    def scan_factors(self):
        """(P, Q) of a mode table, made on first use and kept: the prefix
        products P[i] = Phi_i ... Phi_1 (P[0] = I) and their exact 2 x 2
        inverses Q[i], both (N, 2, 2, m), mode last.

        The scan's rounding grows with ||P_i|| ||P_j^-1||, so a table for
        which max_i ||P_i|| max_j ||P_j^-1|| of some mode, in its balanced
        norm (:func:`_scan_growth`), exceeds ``SCAN_LIMIT`` or is not
        finite gets None, as does a table without modes; the bound holds
        for every window of the others.  O(N m).
        """
        if self._scan is _UNMADE:
            self._scan = None if self.modes is None else \
                _scan_factors(self.modes)
        return self._scan

    def window(self, a, b):
        """The interval maps of nodes a..b as the representation formula's
        recurrence reads them: ``chain(V0, C)``, the states
        V_k = Phi_{a+k} V_{k-1} + C[k - 1] from V_0 = V0, and ``mv(k, x)``,
        Phi_{a+k} x for a node or stacked over a slice of nodes.  A table
        with :meth:`scan_factors` evaluates the chain as a prefix scan,
        O(K m); any other runs one dense mat-vec per node, O(K m^2)."""
        scan = self.scan_factors()
        if scan is None:
            return _MapWindow(self.blocks[a:b + 1])
        P, Q = scan
        return _ScanWindow(self.modes[a:b + 1].transpose(0, 2, 3, 1),
                           P[a:b + 1], Q[a:b + 1])

    def window_step(self, a, b):
        """The step of the uniform grid window a..b, checked by
        :func:`quadrature.require_uniform` once per window and kept."""
        if (a, b) not in self._steps:
            self._steps[a, b] = quadrature.require_uniform(
                self.time_grid[a:b + 1])
        return self._steps[a, b]

    def startup_blocks(self, j, b_of_t=None):
        """S(t_{j+1}, t_j) and its s-derivative at s = t_j, S B(t_j) - C
        (-C for ``b_of_t`` None), from the backward identity
        dE/ds = -E G(s); made once per node and damping supplier, and kept."""
        key = (j, b_of_t)
        if key not in self._startup:
            S, C = self.S(j + 1, j), self.C(j + 1, j)
            ds = -C if b_of_t is None else \
                S @ np.asarray(b_of_t(self.time_grid[j])) - C
            self._startup[key] = (S, ds)
        return self._startup[key]

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

        A table with ``modes`` takes every row's exact integral from them,
        :meth:`_mode_row_maximum`.  On dense maps, exact 2-norms are taken only for the rows that can decide the
        maximum.  The floor is a lower bound on the last row's integral:
        its S-blocks come from a backward product of top halves,
        E(t_{N-1}, s_j)[:m] = E(t_{N-1}, s_{j+1})[:m] Phi_{j+1}, O(N m^3),
        and each block's norm from below as the larger of its largest column
        and row 2-norms, the integral scaled by (1 - FLOOR_SLACK) for the
        rounding by which the backward products differ from the forward
        ones.  One ascending sweep then carries the 2m x m right halves
        Phi_i E(t_{i-1}, s_j)[:, m:] and integrates, for each row, the upper
        bound min(||S||_F, sqrt(||S||_1 ||S||_inf)) of ||S||_2.  Only a row
        whose upper integral times (1 + DUHAMEL_MARGIN) exceeds both the
        floor and the best exact integral so far gets its own, from the
        carried halves, which are the whole-row blocks of :meth:`row` bit
        for bit; the margin covers the last-bit rounding of the norms.  The
        composite weights are positive, so a skipped row's exact integral
        cannot exceed the best one or the floor.  The result is the best
        exact integral, never the floor; should it fall below the floor,
        the sweep runs again without one.  So it is the same float as the
        maximum over the exact integrals of every row.
        """
        if self._duhamel is None:
            if self.modes is not None:
                best = self._mode_row_maximum()
            else:
                floor = self._last_row_floor()
                best = self._pruned_row_maximum(floor)
                if best < floor:
                    best = self._pruned_row_maximum(0.0)
            self._duhamel = best
        return self._duhamel

    def _mode_row_maximum(self):
        """The largest exact row integral of a table with a mode stack.

        Every block is diagonal in each quadrant, S(t_i, s_j) =
        diag(s_k(t_i, s_j)), so ||S||_2 = max_k |s_k|.  Row i of the stack
        is Phi_i times row i - 1, then Phi_i and the identity: one batched
        2 x 2 product per row, O(N^2 m) in all.
        """
        grid, phis = self.time_grid, self.modes
        row = np.broadcast_to(np.eye(2), phis.shape[1:])[None]
        best = 0.0
        for i in range(1, self.n_nodes):
            prev, row = row, np.empty((i + 1,) + phis.shape[1:])
            np.matmul(phis[i], prev[:i - 1], out=row[:i - 1])
            row[i - 1] = phis[i]
            row[i] = np.eye(2)
            vals = np.abs(row[:, :, 0, 1]).max(axis=1)
            best = max(best, float(quadrature.integrate(vals, grid[:i + 1])))
        return best

    def _last_row_floor(self):
        """A lower bound on int_0^T ||S(t_{N-1}, s)||_2 ds, O(N m^3)."""
        m, N = self.m, self.n_nodes
        tops = np.empty((N, m, 2 * m))
        tops[-1] = self._eye[:m]
        for j in range(N - 2, -1, -1):
            np.matmul(tops[j + 1], self.blocks[j + 1], out=tops[j])
        sq = tops[:, :, m:] ** 2
        lower = np.sqrt(np.maximum(sq.sum(axis=1).max(axis=1),
                                   sq.sum(axis=2).max(axis=1)))
        return (1.0 - FLOOR_SLACK) * float(
            quadrature.integrate(lower, self.time_grid))

    def _pruned_row_maximum(self, floor):
        """The largest exact row integral among the rows whose upper
        integral beats ``floor`` and the best one before them (0.0 if
        none does)."""
        m, grid = self.m, self.time_grid
        # at m = 1 numpy makes a 2 x 2 by 2 x 1 product on its gemv path,
        # whose last bit can differ from the whole-row product's; whole
        # rows are carried there
        lo = 0 if m == 1 else m
        best = 0.0
        # row i's halves go to pair[i % 2], row i - 1's sit in the other
        N = self.n_nodes
        pair = np.empty((2, N, 2 * m, 2 * m - lo))
        s_buf = np.empty((N, m, m))
        for i in range(1, N):
            phi = self.blocks[i]
            prev, carried = pair[(i - 1) % 2, :i], pair[i % 2, :i + 1]
            np.matmul(phi, prev[:i - 1], out=carried[:i - 1])
            carried[i - 1] = phi[:, lo:]
            carried[i] = self._eye[:, lo:]
            S = carried[:, :m, m - lo:]
            s = np.abs(S, out=s_buf[:i + 1])
            one, inf = s.sum(axis=1).max(axis=1), s.sum(axis=2).max(axis=1)
            upper = np.minimum(np.sqrt(np.square(s, out=s).sum(axis=(1, 2))),
                               np.sqrt(one * inf))
            bound = float(quadrature.integrate(upper, grid[:i + 1]))
            if bound * (1.0 + DUHAMEL_MARGIN) > max(floor, best):
                vals = np.linalg.norm(S, 2, axis=(1, 2))
                best = max(best, float(quadrature.integrate(vals, grid[:i + 1])))
        return best

    def first_column_bounds(self):
        """(M1, M2): the largest 2-norms of C(t_i, 0) and S(t_i, 0)."""
        if self._first_column is None and self.modes is not None:
            # every quadrant of E(t_i, 0) is diagonal: its norm is max_k |.|
            first = np.abs(_prefix_products(self.modes))
            self._first_column = (float(first[..., 0, 0].max()),
                                  float(first[..., 0, 1].max()))
        elif self._first_column is None:
            m = self.m
            first = [self._eye, self.blocks[1]]
            for i in range(2, self.n_nodes):
                first.append(self.blocks[i] @ first[-1])
            first = np.array(first)
            self._first_column = tuple(
                float(np.linalg.norm(first[:, : m, c], 2, axis=(1, 2)).max())
                for c in (slice(None, m), slice(m, None)))
        return self._first_column


def fundamental_solution(op, grid, h=1e-3):
    """Tabulate E(t_i, s_j) on all grid pairs by composing interval maps.

    Interval j is integrated once, on a 2m x 2m identity, giving its RK4
    transition map Phi_j; row j of the table is then
    E(t_j, s_i) = Phi_j E(t_{j-1}, s_i) for i < j, with the exact identity
    on the diagonal.  Every pair is a product of the same interval maps, so
    the composition identity E(t,s) = E(t,r)E(r,s) holds by construction up
    to matmul rounding.  Only the maps are made here.  An operator with
    :class:`Diagonals` gets them mode by mode from :func:`_mode_maps`,
    O(N m) per substep, kept as the table's ``modes`` and scattered into
    the dense maps; any other is integrated densely, O(N m^3).  That no
    product of them overflows is shown by :func:`_log_growth_bound`,
    O(N m^2), or O(N m) on the mode stack; only where that certificate
    fails are the rows made, O(N^2 m^3), and the first one that is not
    finite raises :class:`PropagationError` naming its interval.  Mode
    maps that are not finite are made again densely, so a failed table
    raises the errors of the dense fill.
    :func:`require_memory` checks the table's size before anything is
    allocated.
    """
    grid = np.asarray(grid, dtype=float)
    if not (grid.ndim == 1 and grid.size >= 2 and np.all(np.isfinite(grid))
            and np.all(np.diff(grid) > 0)):
        raise ConfigurationError(
            "grid must be finite and strictly increasing with >= 2 nodes")
    require_memory(op.dim, grid.size, modes=op.diagonals is not None)
    validate_step(op, float(grid[-1]), h)
    n2 = 2 * op.dim
    N = grid.size
    a0 = np.asarray(op.a_of_t(grid[0]))
    modes = None
    if op.diagonals is not None:
        _check_step(grid[0], grid[1], h)
        modes = _mode_maps(op.diagonals, grid, h, op.dim)
        if not np.all(np.isfinite(modes)):
            # the dense fill raises the error a failed table always raised
            modes = None
    if modes is not None:
        blocks = _expand(modes)
    else:
        blocks = np.zeros((N, n2, n2))
        for j in range(1, N):
            try:
                blocks[j] = _transition(op, grid[j - 1], grid[j], h)
            except PropagationError as exc:
                # a row before interval j may overflow first
                _check_rows(blocks[:j], a0, grid)
                raise PropagationError(f"{_where(grid, j)}: {exc}",
                                       time=exc.time) from exc
    _check_rows(blocks, a0, grid, modes)
    blocks.flags.writeable = False
    if modes is not None:
        modes.flags.writeable = False
    return FundamentalSolution(grid, op.dim, op.kind, blocks, h, modes)


def _mode_maps(diagonals, grid, h, m):
    """The interval maps of an operator with diagonals, as the (N, m, 2, 2)
    stack of each mode's 2 x 2 block of Phi_j at [j] ([0] is unused).

    Mode k obeys u'' + b_k(t) u' + a_k(t) u = 0, so its block is
    :func:`_span`'s RK4 on that 2 x 2 system, with the same substep count
    and stage times per interval and the same order of operations per
    entry.  The intervals of one substep count and all their modes step
    at once; the diagonals are evaluated for one substep of all of them at
    a time.  Values that are not finite are left in the stack.
    """
    t0, t1 = grid[:-1], grid[1:]
    counts = np.maximum(1, _substeps(t0, t1, h)).astype(int)
    modes = np.zeros((grid.size, m, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in sorted(set(counts.tolist())):
            j = np.flatnonzero(counts == n)
            X = _mode_span(diagonals, t0[j], t1[j], n, m)
            modes[j + 1] = X.transpose(2, 3, 0, 1)
    return modes


def _mode_span(diagonals, t0, t1, n, m):
    """n RK4 substeps from the identity across the intervals [t0, t1]:
    X[r, c, g, k] is entry (r, c) of mode k's block on interval g."""
    dt = (t1 - t0) / n
    X = np.zeros((2, 2, dt.size, m))
    X[0, 0] = X[1, 1] = 1.0
    k1, k2, k3, k4, Y = (np.empty_like(X) for _ in range(5))
    damp = np.empty_like(X[1])
    h = dt[:, None]

    def stage(neg_a, neg_b, Y, k):
        """k = G(t) Y, mode by mode."""
        k[0] = Y[1]
        np.multiply(neg_a, Y[0], out=k[1])
        if neg_b is not None:
            k[1] += np.multiply(neg_b, Y[1], out=damp)

    for step in range(n):
        t = t0 + step * dt
        times = np.stack([t, t + 0.5 * dt, t + dt])
        A0, Am, A1 = -_diagonal(diagonals.a_terms, times, m)
        B0 = Bm = B1 = None
        if diagonals.b_terms is not None:
            B0, Bm, B1 = -_diagonal(diagonals.b_terms, times, m)
        stage(A0, B0, X, k1)
        np.multiply(k1, 0.5 * h, out=Y)
        Y += X
        stage(Am, Bm, Y, k2)
        np.multiply(k2, 0.5 * h, out=Y)
        Y += X
        stage(Am, Bm, Y, k3)
        np.multiply(k3, h, out=Y)
        Y += X
        stage(A1, B1, Y, k4)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= h / 6.0
        X += k1
    return X


def _expand(modes):
    """The dense (N, 2m, 2m) maps of an (N, m, 2, 2) mode stack: mode k's
    block at rows and columns k and m + k, zero elsewhere."""
    N, m = modes.shape[:2]
    blocks = np.zeros((N, 2 * m, 2 * m))
    k = np.arange(m)
    for r in (0, 1):
        for c in (0, 1):
            blocks[:, r * m + k, c * m + k] = modes[:, :, r, c]
    return blocks


def _where(grid, j):
    return (f"fundamental solution failed between nodes {j - 1} and {j} "
            f"(t in [{grid[j - 1]:.6g}, {grid[j]:.6g}])")


def _log_growth_bound(phis, a0):
    """log of a bound on every entry of every product Phi_i ... Phi_{j+1}
    of the interval maps ``phis`` and of every partial sum that a matmul
    forms while making one.

    With D = diag(sqrt(1 + |A(t_0)_kk|), 1), which weighs each
    displacement like its velocity in the energy of its mode,
    ||Phi_i ... Phi_{j+1}||_2 <= cond(D) prod_k max(1, ||D Phi_k D^-1||_2)
    and ||X||_2 <= sqrt(||X||_1 ||X||_inf); the clamp at 1 keeps a
    contractive map from shrinking the bound on a sub-product.  A matmul
    Phi E sums 2m terms of at most max|Phi| max|E| each.  O(N m^2).

    ``phis`` holds dense (2m, 2m) maps or the (m, 2, 2) mode blocks of
    maps that are zero off them; the column and row sums of such a map are
    its blocks' sums plus zeros, so both give the same float.
    """
    d = np.sqrt(1.0 + np.abs(np.diagonal(a0)))
    if phis.ndim == 3:
        phis, d = phis[:, None], np.concatenate([d, np.ones_like(d)])[None]
    else:
        d = np.stack([d, np.ones_like(d)], axis=-1)
    mag = np.abs(phis)
    scaled = mag * (d[:, :, None] / d[:, None, :])
    norms = np.sqrt(scaled.sum(axis=-2).max(axis=(-2, -1))
                    * scaled.sum(axis=-1).max(axis=(-2, -1)))
    return float(np.log(d.max()) + np.log(np.maximum(norms, 1.0)).sum()
                 + np.log(d.size) + np.log(max(1.0, mag.max(initial=0.0))))


def _check_rows(phis, a0, grid, modes=None):
    """Raise :class:`PropagationError` at the first row of the products of
    ``phis[1:]`` (``phis[j]`` is Phi_j) with a block that is not finite.
    The rows are made only when :func:`_log_growth_bound`, of the maps'
    ``modes`` where given, cannot show that all of them are finite."""
    if _log_growth_bound((phis if modes is None else modes)[1:], a0) \
            < OVERFLOW_LOG_LIMIT:
        return
    row = np.eye(phis.shape[-1])[None]
    for j in range(1, len(phis)):
        row = _next_row(phis[j], row)
        if not np.all(np.isfinite(row[:j - 1])):
            raise PropagationError(
                f"{_where(grid, j)}: non-finite blocks reached at "
                f"t={grid[j]:.6g}", time=float(grid[j]))


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
                                h=fs.h)
    return adjoint_defect(fs, fs_r)


def _sha256(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def dump_fs(fs, path):
    """Write the table's grid and interval maps to a little-endian file:
    magic, kind byte, m, node count, substep (f64), the grid, ``blocks[1:]``
    row-major, then the sha256 of all the bytes before it.  No row is made."""
    parts = (_MAGIC + struct.pack("<BIId", 1 if fs.kind == "damped" else 0,
                                  fs.m, fs.n_nodes, fs.h),
             np.ascontiguousarray(fs.time_grid, dtype="<f8"),
             np.ascontiguousarray(fs.blocks[1:], dtype="<f8"))
    with open(path, "wb") as fh:
        fh.writelines(parts + (_sha256(parts),))


def load_fs(path):
    """Read a :func:`dump_fs` file.  The header, the exact size,
    :func:`require_memory`, the digest, a finite increasing grid, finite
    maps and the overflow certificate of :func:`fundamental_solution` are
    checked in this order, each failure a :class:`ConfigurationError`; the
    file holds no operator, so the certificate weighs the maps with D = I."""
    off = len(_MAGIC) + struct.calcsize("<BIId")
    with open(path, "rb") as fh:
        head = fh.read(off)
        if head[:8] == b"NLWFS001":
            raise ConfigurationError(f"{path} was written by an older "
                                     "dump_fs format; dump the table again")
        if head[:8] != _MAGIC or len(head) < off:
            raise ConfigurationError(f"{path} is not a fundamental-solution dump")
        kind_b, m, n, h = struct.unpack_from("<BIId", head, 8)
        if kind_b > 1 or m < 1 or n < 2 or not (np.isfinite(h) and h > 0):
            raise ConfigurationError(
                f"{path} has a corrupt header (kind byte {kind_b}, m={m}, "
                f"{n} nodes, h={h!r})")
        expected = off + 8 * (n + (n - 1) * 4 * m * m) + 32   # sha256
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ConfigurationError(
                f"{path} holds {size} bytes; its header (m={m}, {n} nodes) "
                f"needs exactly {expected}")
        require_memory(m, n)
        grid = np.empty(n, dtype="<f8")
        blocks = np.zeros((n, 2 * m, 2 * m), dtype="<f8")
        fh.readinto(grid)
        fh.readinto(blocks[1:])
        if _sha256((head, grid, blocks[1:])) != fh.read():
            raise ConfigurationError(f"{path} does not match its sha256 digest")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ConfigurationError(
            f"{path} holds a grid that is not finite and increasing")
    if not np.all(np.isfinite(blocks)):
        raise ConfigurationError(f"{path} holds interval maps that are not finite")
    try:
        _check_rows(blocks, np.zeros((m, m)), grid)
    except PropagationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    blocks.flags.writeable = False
    return FundamentalSolution(grid, m, "damped" if kind_b else "undamped",
                               blocks, h)
