"""Finite-dimensional spaces H = L2(Omega), V = H1(Omega) on simple domains.

The discrete spaces are spanned by Neumann-Laplacian eigenfunctions: the
constant mode plus cosines on an interval, and their tensor products on a
rectangle.  With this choice the H-inner product is the Euclidean product on
coefficient vectors, the V-norm is the (1 + lambda_k)-weighted norm, and the
autonomous applications diagonalise, which gives closed-form oracles for the
propagator tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

GRAM_TOL = 1e-12


@dataclass(frozen=True)
class SpatialDomain:
    """Interval (0, L) or rectangle (0, L1) x (0, L2).

    ``quadrature_order`` is the Gauss-Legendre point count per dimension;
    0 selects the default 2*m + 12 at basis construction, enough that the
    Gram matrix of every shipped mode count is the identity to 1e-12.
    """

    kind: str
    lengths: tuple
    quadrature_order: int = 0

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        expected = 1 if self.kind == "interval" else 2
        if len(self.lengths) != expected:
            raise ConfigurationError(
                f"{self.kind} domain needs {expected} length(s), got {len(self.lengths)}")
        if not all(0 < L < np.inf for L in self.lengths):
            raise ConfigurationError(
                f"domain lengths must be finite and strictly positive, got "
                f"{self.lengths}")
        if self.quadrature_order < 0:
            raise ConfigurationError("quadrature_order must be nonnegative")

    @property
    def dimension(self):
        return len(self.lengths)


def interval(length, quadrature_order=0):
    return SpatialDomain("interval", (float(length),), quadrature_order)


def rectangle(length_x, length_y, quadrature_order=0):
    return SpatialDomain("rectangle", (float(length_x), float(length_y)),
                         quadrature_order)


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal Neumann eigenbasis with tabulated values at quadrature nodes.

    Immutable after construction; safe to share across threads.
    """

    domain: SpatialDomain
    m: int
    eigenvalues: np.ndarray          # (m,), sorted nondecreasing, lambda_0 = 0
    modes: tuple                     # per-mode index (k,) or (kx, ky)
    nodes_x: np.ndarray              # (Q,)
    nodes_y: np.ndarray | None       # (Q,) for rectangles
    weights: np.ndarray              # (Q,)
    eval_table: np.ndarray           # (m, Q) mode values at the nodes
    grad_x: np.ndarray               # (m, Q)
    grad_y: np.ndarray | None        # (m, Q) for rectangles
    _proj: np.ndarray = field(repr=False, default=None)  # (m, Q) weights*values

    @property
    def v_weights(self):
        """Diagonal of the V-inner-product operator, 1 + lambda_k."""
        return 1.0 + self.eigenvalues

    def evaluate(self, coeffs):
        """Point values sum_k c_k Psi_k at the quadrature nodes."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.m:
            raise ConfigurationError(
                f"coefficient length {coeffs.shape[-1]} does not match m={self.m}")
        return coeffs @ self.eval_table


def _interval_tables(L, m, q):
    x, w = np.polynomial.legendre.leggauss(q)
    nodes = 0.5 * L * (x + 1.0)
    weights = 0.5 * L * w
    ks = np.arange(m)
    lam = (ks * np.pi / L) ** 2
    amp = np.where(ks == 0, np.sqrt(1.0 / L), np.sqrt(2.0 / L))
    phase = np.outer(ks * np.pi / L, nodes)
    ev = amp[:, None] * np.cos(phase)
    gr = -amp[:, None] * (ks * np.pi / L)[:, None] * np.sin(phase)
    return nodes, weights, lam, ev, gr


def build_basis(domain, m):
    """Construct the first ``m`` Neumann-Laplacian eigenmodes on ``domain``.

    Interval modes are the constant plus the cosine family; rectangle modes
    are tensor products sorted by eigenvalue (ties broken by mode index so
    bases are nested across m).
    """
    if m < 1:
        raise ConfigurationError("mode count m must be at least 1")
    q = domain.quadrature_order or (2 * m + 12)
    if domain.kind == "interval":
        L, = domain.lengths
        nodes, weights, lam, ev, gr = _interval_tables(L, m, q)
        basis = SpectralBasis(domain, m, lam, tuple((int(k),) for k in range(m)),
                              nodes, None, weights, ev, gr, None)
    else:
        L1, L2 = domain.lengths
        # enough 1D modes that the first m tensor modes are all present
        k_max = m
        cand = [((i * np.pi / L1) ** 2 + (j * np.pi / L2) ** 2, i, j)
                for i in range(k_max + 1) for j in range(k_max + 1)]
        cand.sort()
        chosen = cand[:m]
        x1, w1, _, ev1, gr1 = _interval_tables(L1, k_max + 1, q)
        x2, w2, _, ev2, gr2 = _interval_tables(L2, k_max + 1, q)
        nx = np.repeat(x1, q)
        ny = np.tile(x2, q)
        weights = np.repeat(w1, q) * np.tile(w2, q)
        lam = np.array([c[0] for c in chosen])
        ev = np.empty((m, q * q))
        gx = np.empty((m, q * q))
        gy = np.empty((m, q * q))
        for row, (_, i, j) in enumerate(chosen):
            ev[row] = np.repeat(ev1[i], q) * np.tile(ev2[j], q)
            gx[row] = np.repeat(gr1[i], q) * np.tile(ev2[j], q)
            gy[row] = np.repeat(ev1[i], q) * np.tile(gr2[j], q)
        basis = SpectralBasis(domain, m, lam, tuple((i, j) for _, i, j in chosen),
                              nx, ny, weights, ev, gx, gy)
    object.__setattr__(basis, "_proj", basis.eval_table * basis.weights)
    gram = basis._proj @ basis.eval_table.T
    defect = np.max(np.abs(gram - np.eye(m)))
    if not defect <= GRAM_TOL:
        raise ConfigurationError(
            f"basis not orthonormal under stored quadrature (defect {defect:.3e}); "
            "increase quadrature_order")
    return basis


def node_samples(basis, expr, t=0.0):
    """Values of an expression of (t, x[, y]) at the quadrature nodes:
    shape (Q,) for a scalar t, (N, Q) for an (N, 1) time column."""
    vals = expr(t=t, x=basis.nodes_x,
                y=0.0 if basis.nodes_y is None else basis.nodes_y)
    return np.broadcast_to(np.asarray(vals, dtype=float),
                           np.broadcast_shapes(np.shape(t), basis.nodes_x.shape))


def project(basis, f):
    """Project node samples onto the basis: k-th entry is <f, Psi_k>_H.

    ``f`` holds values at the quadrature nodes (see :func:`node_samples`),
    shape (Q,), or stacked along leading axes, shape (..., Q); the result
    then has shape (..., m), one projection per stacked row.
    """
    samples = np.asarray(f)
    if samples.shape[-1:] != basis.nodes_x.shape:
        raise ConfigurationError(
            f"expected {basis.nodes_x.size} node samples, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("non-finite sample values in projection input")
    return samples @ basis._proj.T


def norms(basis, u):
    """(H-norm, V-norm) of a coefficient vector; always h <= v."""
    u = np.asarray(u)
    if u.shape[-1] != basis.m:
        raise ConfigurationError("coefficient length does not match basis")
    h = float(np.linalg.norm(u))
    v = float(np.sqrt(np.sum(basis.v_weights * np.abs(u) ** 2)))
    return h, v


@dataclass
class Trajectory:
    """Galerkin coefficients of (u, u') on a time grid."""

    grid: np.ndarray   # (N,), strictly increasing, grid[0] = 0
    u: np.ndarray      # (N, m)
    v: np.ndarray      # (N, m)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.u = np.asarray(self.u)
        self.v = np.asarray(self.v)
        if self.u.shape != self.v.shape or self.u.shape[0] != self.grid.size:
            raise ConfigurationError("trajectory arrays do not match the grid")
        if not (np.all(np.isfinite(self.grid))
                and np.all(np.diff(self.grid) > 0)):
            raise ConfigurationError(
                "trajectory grid must be finite and strictly increasing")

    @property
    def m(self):
        return self.u.shape[1]

    def sup_h_norm(self):
        return float(np.max(np.linalg.norm(self.u, axis=1)))


def zero_trajectory(grid, m):
    grid = np.asarray(grid, dtype=float)
    return Trajectory(grid, np.zeros((grid.size, m)), np.zeros((grid.size, m)))
