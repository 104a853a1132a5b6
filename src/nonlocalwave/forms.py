"""Time-dependent sesquilinear forms, projected operators and certificates.

A form a(t; u, v) = int a(t,x) grad(u).grad(v) + int c(t,x) u v is assembled
against a :class:`~nonlocalwave.spectral.SpectralBasis` by quadrature.  The
time-stepping suppliers assemble a coefficient that depends on t alone as
c(t) K, from a Gram matrix K built once per basis.  The module also certifies,
numerically, the hypotheses the solver relies on: uniform boundedness
(operator norm measured V -> V' in coordinates), (possibly shifted)
coercivity, the time-regularity modulus omega with its two Dini integrals,
and Lipschitz constants of nonlocal kernels.

The square-root property is not checked: at finite dimension it holds by
construction (bounded perturbation of a symmetric operator, numerical range
in a parabola) and certificates record it as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import CertificationError, ConfigurationError
from .expressions import Expression, as_expression

BOUND_CHECK_TOL = 1e-12
FORM_TIME_SAMPLES = 33     # times at which coefficients and forms are checked
KERNEL_TIME_SAMPLES = 129  # times of kernel_lipschitz's L2-in-time norms


@dataclass(frozen=True)
class CoefficientField:
    """A scalar coefficient: an expression of (t, x[, y]) with declared
    bounds.  Calling it evaluates the expression at a time and points
    (y = 0 on an interval) as floats of the points' shape."""

    symbol: str
    expression: Expression
    lower: float | None = None
    upper: float | None = None

    def __call__(self, t, x, y=None):
        values = self.expression(t=t, x=x, y=0.0 if y is None else y)
        return np.broadcast_to(
            np.asarray(values, dtype=float), np.shape(x)).copy()


def coefficient_field(symbol, expr, lower=None, upper=None):
    """Build a coefficient field from an expression string, number or
    :class:`Expression`; anything else raises ``ExpressionError``."""
    return CoefficientField(symbol, as_expression(expr), lower, upper)


def validate_coefficient(field, basis, horizon):
    """Check finiteness and declared bounds on sampled (t, x).

    Raises :class:`CertificationError` carrying a witness (t, x) pair.
    """
    times = np.linspace(0.0, horizon, FORM_TIME_SAMPLES)
    for t in times:
        vals = field(t, basis.nodes_x, basis.nodes_y)
        bad = ~np.isfinite(vals)
        if not bad.any():
            if field.lower is not None:
                bad = vals < field.lower - BOUND_CHECK_TOL
            if field.upper is not None:
                bad |= vals > field.upper + BOUND_CHECK_TOL
        if bad.any():
            i = int(np.argmax(bad))
            point = (float(basis.nodes_x[i]),) if basis.nodes_y is None else \
                (float(basis.nodes_x[i]), float(basis.nodes_y[i]))
            raise CertificationError(
                f"coefficient {field.symbol!r} violates its declared bounds "
                f"at t={t:.6g}, x={point}", witness_time=float(t),
                witness_point=point)


@dataclass(frozen=True)
class FormSpec:
    """Coefficients of a(t;u,v) plus the optional damping form b(t;u,v)."""

    gradient_coef: CoefficientField | None
    zeroth_coef: CoefficientField | None
    damping_coef: CoefficientField | None
    horizon: float

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError("form horizon must be finite and positive")

    @property
    def damped(self):
        return self.damping_coef is not None


@dataclass
class FormCertificate:
    """Numerically certified constants of a form.

    ``omega_deltas``/``omega_values`` tabulate the time-regularity modulus;
    ``dini_integrals`` are the integrals of omega(t)/t^(3/2) and
    (omega(t)/t)^2 over [T/1e4, T].
    """

    bound_c: float
    coercivity_alpha: float
    shift: float
    gradient_coercivity: float | None
    omega_deltas: np.ndarray
    omega_values: np.ndarray
    dini_integrals: tuple
    dini_warning: bool
    square_root_property: str = "satisfied by construction (finite dimension)"


def _weighted_gram(table_a, table_b, weights, values):
    return (table_a * (weights * values)) @ table_b.T


def _gram(tables, basis, values):
    """Quadrature Gram matrix of one coefficient from its values at the
    nodes: the sum over ``tables`` of T diag(w * values) T^T."""
    out = _weighted_gram(tables[0], tables[0], basis.weights, values)
    for table in tables[1:]:
        out += _weighted_gram(table, table, basis.weights, values)
    return out


def _coefficient_gram(coef, tables, basis, t):
    return _gram(tables, basis, coef(t, basis.nodes_x, basis.nodes_y))


def _stiffness_parts(form, basis):
    """(coefficient, tables) of each term of a(t; ., .)."""
    parts = []
    if form.gradient_coef is not None:
        grads = (basis.grad_x,) if basis.grad_y is None else \
            (basis.grad_x, basis.grad_y)
        parts.append((form.gradient_coef, grads))
    if form.zeroth_coef is not None:
        parts.append((form.zeroth_coef, (basis.eval_table,)))
    return parts


def _damping_parts(form, basis):
    if form.damping_coef is None:
        raise ConfigurationError("form has no damping coefficient")
    return [(form.damping_coef, (basis.eval_table,))]


def _checked_sum(pieces, m, t):
    """Sum of the (coefficient, matrix) pieces; non-finite entries raise
    :class:`ConfigurationError` naming the coefficient whose piece has them."""
    entries = np.zeros((m, m))
    for _, piece in pieces:
        entries += piece
    if not np.isfinite(entries).all():
        name = next((coef.symbol for coef, piece in pieces
                     if not np.isfinite(piece).all()), pieces[-1][0].symbol)
        raise ConfigurationError(
            f"assembly produced non-finite entries (coefficient {name!r}) at t={t}")
    return entries


def assemble(form, basis, t):
    """Galerkin matrix of a(t; ., .) by quadrature; entry (j, k) is
    a(t; Psi_k, Psi_j)."""
    return _checked_sum([(coef, _coefficient_gram(coef, tables, basis, t))
                         for coef, tables in _stiffness_parts(form, basis)],
                        basis.m, t)


def assemble_damping(form, basis, t):
    """Galerkin matrix of the damping form b(t; u, v) = int sigma u v."""
    return _checked_sum([(coef, _coefficient_gram(coef, tables, basis, t))
                         for coef, tables in _damping_parts(form, basis)],
                        basis.m, t)


def _affine_part(coef, tables, basis):
    """Time -> one coefficient's Gram matrix.

    An expression over t alone gives c(t) K, with K its Gram matrix at
    c = 1 built here once.  An expression over x or y is assembled by
    quadrature at each t, as :func:`assemble` does, and gives its matrices
    bit for bit.
    """
    e = coef.expression
    if e.depends_on("x") or e.depends_on("y"):
        return lambda t: _coefficient_gram(coef, tables, basis, t)
    K = _gram(tables, basis, 1.0)
    return lambda t: e(t=t) * K


def _affine_supplier(parts, basis):
    """Time -> the sum of the coefficients' Gram matrices.

    The piece of a coefficient expression without t is made here once; the
    others are made at each call and added in the same order, so the sum is
    :func:`_checked_sum`'s bit for bit.  A non-finite sum goes through
    :func:`_checked_sum`, which names the coefficient.
    """
    m = basis.m
    parts = [(coef, _affine_part(coef, tables, basis)) for coef, tables in parts]
    pieces = [part if coef.expression.depends_on("t")
              else (lambda t, fixed=part(0.0): fixed)
              for coef, part in parts]

    def supplier(t):
        entries = np.zeros((m, m))
        for piece in pieces:
            entries += piece(t)
        if np.isfinite(entries).all():
            return entries
        return _checked_sum([(coef, part(t)) for coef, part in parts], m, t)

    return supplier


def stiffness_supplier(form, basis):
    """Time -> ndarray supplier of A(t), for the block propagator.

    A coefficient without t is assembled once, here; one over t alone costs
    an m x m scaling of a Gram matrix built here; any other is assembled by
    quadrature at each t, as :func:`assemble` does.
    """
    return _affine_supplier(_stiffness_parts(form, basis), basis)


def damping_supplier(form, basis):
    """Time -> ndarray supplier of B(t), assembled like
    :func:`stiffness_supplier`; None for an undamped form."""
    if form.damping_coef is None:
        return None
    return _affine_supplier(_damping_parts(form, basis), basis)


def vvprime_norm(entries, v_weights):
    """Coordinate V -> V' operator norm: ||D^-1/2 M D^-1/2||_2."""
    d = 1.0 / np.sqrt(v_weights)
    return float(np.linalg.norm(entries * np.outer(d, d), 2))


def certify_operator(a_of_t, basis, horizon, shift=0.0,
                     gradient_supplier=None):
    """Certify a time -> matrix supplier (e.g. a stiffness supplier).

    ``shift`` is the H-norm shift omega in the coercivity estimate
    Re a(t;u,u) + shift*|u|_H^2 >= alpha*|u|_V^2; ``gradient_supplier``
    (the gradient part alone) adds its coercivity on non-constant modes.
    """
    vw = basis.v_weights
    dinv = 1.0 / np.sqrt(vw)
    times = np.linspace(0.0, horizon, FORM_TIME_SAMPLES)
    mats = [np.asarray(a_of_t(t), dtype=float) for t in times]

    bound_c = max(vvprime_norm(M, vw) for M in mats)

    alpha = np.inf
    witness = None
    for t, M in zip(times, mats):
        herm = 0.5 * (M + M.conj().T) + shift * np.eye(basis.m)
        scaled = herm * np.outer(dinv, dinv)
        evals, evecs = np.linalg.eigh(scaled)
        if evals[0] < alpha:
            alpha = float(evals[0])
            witness = (float(t), dinv * evecs[:, 0])
    if alpha <= 0:
        raise CertificationError(
            f"coercivity failed: min Rayleigh quotient {alpha:.6g} at "
            f"t={witness[0]:.6g} (shift {shift})",
            witness_time=witness[0], witness_vector=witness[1])

    gradient_alpha = None
    if gradient_supplier is not None and np.any(basis.eigenvalues > 0):
        sel = basis.eigenvalues > 0
        lam = basis.eigenvalues[sel]
        gmin = np.inf
        for t in times:
            G = np.asarray(gradient_supplier(t), dtype=float)[np.ix_(sel, sel)]
            scaled = G / np.sqrt(np.outer(lam, lam))
            gmin = min(gmin, float(np.linalg.eigvalsh(scaled)[0]))
        gradient_alpha = gmin

    # omega(delta) from pairwise form differences on a log-spaced delta grid
    deltas = np.geomspace(horizon / 1.0e4, horizon, 25)
    n_base = 12
    omegas = np.zeros_like(deltas)
    for i, d in enumerate(deltas):
        bases = np.linspace(0.0, max(horizon - d, 0.0), n_base)
        omegas[i] = max(
            vvprime_norm(np.asarray(a_of_t(b + d)) - np.asarray(a_of_t(b)), vw)
            for b in bases)
    omegas = np.maximum.accumulate(omegas)

    f1 = omegas / deltas ** 1.5
    f2 = (omegas / deltas) ** 2
    dini1 = float(np.trapezoid(f1, deltas))
    dini2 = float(np.trapezoid(f2, deltas))
    # flag a likely divergent Dini integral: the first decade dominates
    head = deltas <= deltas[0] * 10.0
    warn = False
    if dini1 > 0 or dini2 > 0:
        h1 = float(np.trapezoid(f1[head], deltas[head])) if head.sum() > 1 else 0.0
        h2 = float(np.trapezoid(f2[head], deltas[head])) if head.sum() > 1 else 0.0
        warn = (dini1 > 0 and h1 > 0.5 * dini1) or (dini2 > 0 and h2 > 0.5 * dini2)

    return FormCertificate(bound_c, alpha, shift, gradient_alpha,
                           deltas, omegas, (dini1, dini2), warn)


def certify(form, basis, shift=0.0):
    """Certify (A2)-(A4) constants of a form against a basis.

    ``shift`` is as in :func:`certify_operator` and is reported separately
    in the certificate.  Coefficient bound declarations are validated first.
    """
    for f in (form.gradient_coef, form.zeroth_coef, form.damping_coef):
        if f is not None:
            validate_coefficient(f, basis, form.horizon)
    grad_sup = None
    if form.gradient_coef is not None:
        grad_only = FormSpec(form.gradient_coef, None, None, form.horizon)
        grad_sup = stiffness_supplier(grad_only, basis)
    return certify_operator(stiffness_supplier(form, basis), basis,
                            form.horizon, shift, gradient_supplier=grad_sup)


@dataclass(frozen=True)
class KernelConstants:
    """Certified Lipschitz constants of g(u) = int kappa(s,.) u(s,.) ds.

    ``into_h`` is the L2(0,T; L-infinity) norm of kappa, the Lipschitz
    constant of g: L2(0,T;H) -> H.  ``gradient`` is the same norm of the
    spatial gradient of kappa; together they bound the constant into V by
    sqrt(into_h^2 + gradient^2).
    """

    into_h: float
    gradient: float

    @property
    def into_v(self):
        return float(np.hypot(self.into_h, self.gradient))

    def __iter__(self):
        return iter((self.into_h, self.gradient))


def _kernel_gradient_samples(kernel, t, xs, ys):
    """|grad kappa| at an (N, 1) time column and the points (xs, ys): (N, P),
    from the exact symbolic derivatives of the kernel's expression."""
    shape = (t.shape[0], xs.size)
    expr = kernel.expression
    gx = expr.diff("x")(t=t, x=xs, y=0.0 if ys is None else ys)
    gx = np.broadcast_to(np.asarray(gx, dtype=float), shape)
    if ys is None:
        return np.abs(gx)
    gy = expr.diff("y")(t=t, x=xs, y=ys)
    gy = np.broadcast_to(np.asarray(gy, dtype=float), shape)
    return np.hypot(gx, gy)


def kernel_lipschitz(kernel, basis):
    """L2(0,T; L-infinity) norms of a nonlocal kernel and its gradient,
    each sampled in one call on the (N, 1) column of sample times."""
    T = kernel.horizon
    if basis.nodes_y is None:
        L, = basis.domain.lengths
        xs = np.linspace(0.0, L, 513)
        ys = None
    else:
        L1, L2 = basis.domain.lengths
        g1 = np.linspace(0.0, L1, 65)
        g2 = np.linspace(0.0, L2, 65)
        xs = np.repeat(g1, 65)
        ys = np.tile(g2, 65)
    times = np.linspace(0.0, T, KERNEL_TIME_SAMPLES)
    col = times[:, None]
    vals = np.broadcast_to(np.asarray(kernel.evaluator(col, xs, ys),
                                      dtype=float), (times.size, xs.size))
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise ConfigurationError(
            f"kernel non-finite at t={times[np.argmin(finite)]}")
    sup_val = np.abs(vals).max(axis=1)
    sup_grad = _kernel_gradient_samples(kernel, col, xs, ys).max(axis=1)
    w = quadrature.composite_weights(times)
    return KernelConstants(
        float(np.sqrt(np.sum(w * sup_val ** 2))),
        float(np.sqrt(np.sum(w * sup_grad ** 2))),
    )

