"""Composite time-quadrature weights on uniform grids.

All Duhamel integrals, kernel averages and discrete L2-in-time norms use the
same deterministic rule: composite Simpson when the interval count is even,
Simpson plus a closing 3/8 panel when it is odd (both O(h^4)), trapezoid for
a single interval.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError

UNIFORM_TOL = 1e-9  # relative spread of steps accepted as a uniform grid


def require_uniform(x):
    """Return the spacing of a strictly increasing uniform grid."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ConfigurationError("grid must contain at least two nodes")
    steps = np.diff(x)
    if not np.all(steps > 0):
        raise ConfigurationError("grid must be strictly increasing")
    h = steps.mean()
    if np.max(np.abs(steps - h)) > UNIFORM_TOL * max(1.0, abs(h)):
        raise ConfigurationError("grid must be uniform")
    return h


def composite_weights(x):
    """Quadrature weights w with sum(w * f(x)) ~ integral of f over x.

    Memoised on the nodes themselves, so the kernel quadrature, which asks
    for the weights of the same trajectory grid on every fixed-point
    iteration, and ``duhamel_bound``'s prefix integrals pay a lookup after
    the first call; the returned array is read-only.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError("grid must be one-dimensional")
    return _weights(x.tobytes())


@functools.lru_cache(maxsize=4096)
def _weights(raw):
    x = np.frombuffer(raw)
    n = x.size - 1
    if n < 0:
        raise ConfigurationError("empty grid")
    w = np.zeros(x.size)
    if n > 0:
        h = require_uniform(x)
        if n == 1:
            w[:] = h / 2.0
        elif n % 2 == 0:
            w[0] = w[-1] = h / 3.0
            w[1:-1:2] = 4.0 * h / 3.0
            w[2:-1:2] = 2.0 * h / 3.0
        else:
            # even-count Simpson up to node n-3, then one 3/8 panel
            if n > 3:
                w[: n - 2] = _weights(x[: n - 2].tobytes())
            w[n - 3 :] += np.array([3.0, 9.0, 9.0, 3.0]) * h / 8.0
    w.flags.writeable = False
    return w


def integrate(values, x, axis=0):
    """Integrate sampled values along ``axis`` with composite weights."""
    values = np.asarray(values)
    w = composite_weights(x)
    shape = [1] * values.ndim
    shape[axis] = w.size
    return np.sum(values * w.reshape(shape), axis=axis)


def l2_time_norm(values, x):
    """Discrete L2(0,T)-norm of vector samples (rows indexed by time)."""
    values = np.asarray(values)
    sq = np.sum(np.abs(values) ** 2, axis=tuple(range(1, values.ndim)))
    return float(np.sqrt(max(integrate(sq, x), 0.0)))
