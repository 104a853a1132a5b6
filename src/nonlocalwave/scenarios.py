"""Ready-made problem instances and the scenario configuration format.

A :class:`Scenario` is a value object holding expression sources and
defaults; :func:`realize` turns it into concrete bases, operators,
fundamental-solution tables and a nonlocal problem at a chosen resolution.
Scenarios round-trip through a flat INI-style configuration file, the same
format the command line consumes.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fixedpoint, forms, propagator
from .errors import ConfigurationError
from .expressions import as_expression
from .spectral import (SpatialDomain, Trajectory, build_basis, interval,
                       node_samples, project)

_NONLINEARITIES = ("none", "tanh", "logistic")
_KINDS = ("undamped", "damped")
_ENGINES = ("relaxed", "contraction")


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str                    # undamped | damped
    engine: str                  # relaxed | contraction
    domain: SpatialDomain
    gradient_coef: str
    zeroth_coef: str
    damping_coef: str | None
    nonlinearity: str
    kappa1: str
    offset1: str | None
    kappa2: str
    offset2: str | None
    horizon: float
    m: int
    h: float
    fs_step: float
    bounds: tuple = ()           # ((symbol, lower, upper), ...)
    manufactured_u: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; available: {_KINDS}")
        if self.engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; available: {_ENGINES}")

    def bound_for(self, symbol):
        for sym, lo, hi in self.bounds:
            if sym == symbol:
                return lo, hi
        return None, None


def scenario_undamped_neumann():
    """Undamped Neumann problem with integral-average nonlocal data.

    Interval (0, pi), a(t,x) = 1 + t/2, c = 1, f(t,u) = tanh(u) with
    declared growth (a=1, b=0), kappa_1 = kappa_2 = 1/(2T), T = 1.
    """
    return Scenario(
        name="undamped_neumann", kind="undamped", engine="relaxed",
        domain=interval(np.pi),
        gradient_coef="1 + t/2", zeroth_coef="1", damping_coef=None,
        nonlinearity="tanh",
        kappa1="0.5", offset1="0.5*cos(x)",
        kappa2="0.5", offset2=None,
        horizon=1.0, m=16, h=1e-3, fs_step=1.0 / 80.0,
        bounds=(("a", 1.0, 1.5), ("c", 1.0, 1.0)))


def scenario_population():
    """Damped population model with exponential memory kernels.

    Interval (0, pi), d(t,x) = 1 + 0.1 sin t, sigma = 0.5, mu = 0.2,
    logistic-type f(t,u) = u/(1+u^2) with L = 1, kappa_i = exp(-s)/T, T = 1.
    """
    return Scenario(
        name="population", kind="damped", engine="contraction",
        domain=interval(np.pi),
        gradient_coef="1 + 0.1*sin(t)", zeroth_coef="0.2", damping_coef="0.5",
        nonlinearity="logistic",
        kappa1="exp(-t)", offset1="0.5*cos(x)",
        kappa2="exp(-t)", offset2=None,
        horizon=1.0, m=16, h=1e-3, fs_step=1.0 / 80.0,
        bounds=(("d", 0.9, 1.1), ("mu", 0.2, 0.2), ("sigma", 0.5, 0.5)))


def manufactured(u_star, skeleton, name=None):
    """Scenario whose exact solution is ``u_star`` (an expression of t, x).

    The forcing and the kernel offsets are derived at realization time so
    that u_star solves the equation and reproduces its own nonlocal data.
    """
    expr = as_expression(u_star)
    return dataclasses.replace(
        skeleton, manufactured_u=expr.source,
        name=name or f"manufactured[{skeleton.name}]")


def builtin_scenarios():
    mk = manufactured("cos(t)*cos(x)", scenario_undamped_neumann(),
                      name="manufactured_coscos")
    return {s.name: s for s in
            (scenario_undamped_neumann(), scenario_population(), mk)}


def _build_nonlinearity(name, basis):
    if name == "none":
        return fixedpoint.zero_nonlinearity()
    if name == "tanh":
        return fixedpoint.pointwise_nonlinearity(
            basis, lambda t, vals: np.tanh(vals), kind="growth",
            growth_a=1.0, lipschitz=1.0, name="tanh")
    if name == "logistic":
        return fixedpoint.pointwise_nonlinearity(
            basis, lambda t, vals: vals / (1.0 + vals ** 2), kind="lipschitz",
            growth_a=1.0, lipschitz=1.0, name="logistic")
    raise ConfigurationError(
        f"unknown nonlinearity {name!r}; available: {_NONLINEARITIES}")


@dataclass
class Realization:
    """A scenario instantiated at a concrete resolution."""

    scenario: Scenario
    basis: object
    form: forms.FormSpec
    op: object
    fs: object
    problem: fixedpoint.NonlocalProblem
    grid: np.ndarray
    h: float
    exact: tuple | None = None      # (u*, du*/dt) expressions if manufactured
    span_defect: float | None = None


def build_form(scenario):
    """FormSpec of a scenario: its coefficients under the symbols of its
    kind (a, c, sigma or d, mu, sigma), carrying the declared bounds."""
    symbols = ("a", "c", "sigma") if scenario.kind == "undamped" else \
        ("d", "mu", "sigma")
    sources = (scenario.gradient_coef, scenario.zeroth_coef,
               scenario.damping_coef)
    fields = [None if src is None else forms.coefficient_field(
        sym, src, *scenario.bound_for(sym))
        for sym, src in zip(symbols, sources)]
    return forms.FormSpec(*fields, horizon=scenario.horizon)


def realize(scenario, m=None, h=None, fs_step=None, span_tol=1e-8, seed=0):
    """Build basis, operators, tables and the nonlocal problem.

    ``span_tol`` guards manufactured solutions: if the chosen u_star is not
    in the basis span to that tolerance the configuration is rejected with
    the projection defect (pass None to skip, e.g. for refinement studies).
    """
    m = scenario.m if m is None else m
    h = scenario.h if h is None else h
    fs_step = scenario.fs_step if fs_step is None else fs_step
    T = scenario.horizon
    if m < 1:
        raise ConfigurationError(f"m={m!r} must be at least 1")
    for name, value in (("horizon", T), ("h", h), ("fs_step", fs_step)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigurationError(
                f"{name}={value!r} must be finite and positive")
    # the table grid takes steps of exactly fs_step; a step count that
    # overflows to inf fails the test too
    steps = np.round(T / fs_step)
    if not abs(steps * fs_step - T) <= 1e-9 * T:
        raise ConfigurationError(
            f"fs_step={fs_step!r} does not divide the horizon {T!r}")
    n_nodes = int(steps) + 1
    if (scenario.kind == "damped") != (scenario.damping_coef is not None):
        raise ConfigurationError(
            f"scenario kind {scenario.kind!r} inconsistent with "
            f"damping_coef={scenario.damping_coef!r}")
    basis = build_basis(scenario.domain, m)

    form = build_form(scenario)
    op = forms.block_operator(form, basis)

    grid = np.linspace(0.0, T, n_nodes)
    fs = propagator.fundamental_solution(op, grid, h=h)

    kernel_g = fixedpoint.nonlocal_kernel(scenario.kappa1, T, scenario.offset1)
    kernel_h = fixedpoint.nonlocal_kernel(scenario.kappa2, T, scenario.offset2)
    nl = _build_nonlinearity(scenario.nonlinearity, basis)

    exact = None
    span_defect = None
    if scenario.manufactured_u is not None:
        ustar = as_expression(scenario.manufactured_u)
        ut = ustar.diff("t")
        exact = (ustar, ut)

        def coeffs_of(expr, t):
            return project(basis, node_samples(basis, expr, t))

        # spatial span check: compare u* against its projection in L2
        vals = node_samples(basis, ustar, np.linspace(0.0, T, 5)[:, None])
        back = basis.evaluate(project(basis, vals))
        span_defect = float(np.max(np.sqrt(
            np.sum(basis.weights * np.abs(vals - back) ** 2, axis=1))))
        if span_tol is not None and span_defect > span_tol:
            raise ConfigurationError(
                f"manufactured solution is outside the basis span at m={m} "
                f"(projection defect {span_defect:.3e})")

        # forcing: f_total(t,u) = f_nl(t,u) + [u*'' + B u*' + A u* - f_nl(t,u*)]
        a_expr = as_expression(scenario.gradient_coef)
        c_expr = as_expression(scenario.zeroth_coef)
        rhs = ustar.diff("t").diff("t") + c_expr * ustar \
            - (a_expr * ustar.diff("x")).diff("x")
        if basis.nodes_y is not None:
            rhs = rhs - (a_expr * ustar.diff("y")).diff("y")
        if scenario.damping_coef is not None:
            rhs = rhs + as_expression(scenario.damping_coef) * ut

        def extra(t, _rhs=rhs, _nl=nl):
            return coeffs_of(_rhs, t) - _nl.evaluator(t, coeffs_of(ustar, t))

        nl = fixedpoint.with_extra_forcing(nl, extra)

        # offsets chosen with the engine's own quadrature so g, h reproduce
        # u*(0), u*'(0) exactly at the discrete level
        star_traj = Trajectory(grid, coeffs_of(ustar, grid[:, None]),
                               coeffs_of(ut, grid[:, None]))
        bare_g = dataclasses.replace(kernel_g, offset=None)
        bare_h = dataclasses.replace(kernel_h, offset=None)
        off1 = coeffs_of(ustar, 0.0) - fixedpoint.apply_kernel(
            bare_g, star_traj, basis)
        off2 = coeffs_of(ut, 0.0) - fixedpoint.apply_kernel(
            bare_h, star_traj, basis)
        kernel_g = dataclasses.replace(kernel_g, offset=off1)
        kernel_h = dataclasses.replace(kernel_h, offset=off2)

    fixedpoint.validate_growth(nl, m, T, np.random.default_rng(seed))

    problem = fixedpoint.NonlocalProblem(op, basis, kernel_g, kernel_h, nl, T)
    return Realization(scenario, basis, form, op, fs, problem, grid, h,
                       exact=exact, span_defect=span_defect)


def solve_realization(rz, cfg=None):
    """Run the engine the scenario prescribes."""
    if rz.scenario.engine == "contraction":
        return fixedpoint.contraction_solve(rz.problem, rz.fs, cfg)
    return fixedpoint.relaxed_solve(rz.problem, rz.fs, cfg)


def manufactured_errors(rz, traj):
    """(sup-in-time coefficient H-error, sup-in-time function-space L2 error)
    of a trajectory against the manufactured exact solution."""
    if rz.exact is None:
        raise ConfigurationError("realization has no manufactured solution")
    ustar, _ = rz.exact
    basis = rz.basis
    vals = node_samples(basis, ustar, traj.grid[:, None])
    sup_coef = float(np.max(np.linalg.norm(traj.u - project(basis, vals),
                                           axis=1)))
    diff = basis.evaluate(traj.u) - vals
    sup_fun = float(np.max(np.sqrt(
        np.sum(basis.weights * np.abs(diff) ** 2, axis=1))))
    return sup_coef, sup_fun


def refinement_sweep(scenario, m_list, h=None, fs_step=None, cfg=None,
                     seed=0):
    """Galerkin refinement sweep of a scenario over increasing mode counts."""
    fs_step = fs_step or scenario.fs_step

    def solve_level(m):
        # coarse levels need not resolve a manufactured solution
        rz = realize(scenario, m=m, h=h, fs_step=fs_step, span_tol=None,
                     seed=seed)
        traj, report = solve_realization(rz, cfg)
        return fixedpoint.RefinementLevel(m, rz.fs, traj, report)

    return fixedpoint.galerkin_refine(solve_level, m_list,
                                      rng=np.random.default_rng(seed))


# -- configuration file round trip ------------------------------------------

def save_scenario(scenario, path):
    cp = configparser.ConfigParser(interpolation=None)
    cp["scenario"] = {"name": scenario.name, "kind": scenario.kind,
                      "engine": scenario.engine,
                      "horizon": repr(scenario.horizon)}
    dom = {"kind": scenario.domain.kind}
    if scenario.domain.kind == "interval":
        dom["length"] = repr(scenario.domain.lengths[0])
    else:
        dom["length_x"] = repr(scenario.domain.lengths[0])
        dom["length_y"] = repr(scenario.domain.lengths[1])
    if scenario.domain.quadrature_order:
        dom["quadrature_order"] = str(scenario.domain.quadrature_order)
    cp["domain"] = dom
    frm = {"gradient_coef": scenario.gradient_coef,
           "zeroth_coef": scenario.zeroth_coef}
    if scenario.damping_coef is not None:
        frm["damping_coef"] = scenario.damping_coef
    for sym, lo, hi in scenario.bounds:
        if lo is not None:
            frm[f"{sym}_lower"] = repr(lo)
        if hi is not None:
            frm[f"{sym}_upper"] = repr(hi)
    cp["form"] = frm
    k1 = {"expr": scenario.kappa1}
    if scenario.offset1 is not None:
        k1["offset"] = scenario.offset1
    cp["kernel1"] = k1
    k2 = {"expr": scenario.kappa2}
    if scenario.offset2 is not None:
        k2["offset"] = scenario.offset2
    cp["kernel2"] = k2
    cp["nonlinearity"] = {"name": scenario.nonlinearity}
    if scenario.manufactured_u is not None:
        cp["manufactured"] = {"u_star": scenario.manufactured_u}
    cp["run"] = {"m": str(scenario.m), "h": repr(scenario.h),
                 "fs_step": repr(scenario.fs_step)}
    with open(path, "w") as fh:
        cp.write(fh)


def load_scenario(path):
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise ConfigurationError(f"cannot read configuration file {path!r}")
    try:
        sc = cp["scenario"]
        dom = cp["domain"]
        if dom["kind"] == "interval":
            domain = SpatialDomain("interval", (float(dom["length"]),),
                                   int(dom.get("quadrature_order", 0)))
        elif dom["kind"] == "rectangle":
            domain = SpatialDomain(
                "rectangle",
                (float(dom["length_x"]), float(dom["length_y"])),
                int(dom.get("quadrature_order", 0)))
        else:
            raise ConfigurationError(f"unknown domain kind {dom['kind']!r}")
        frm = cp["form"]

        def limit(key):
            return None if frm.get(key) is None else float(frm[key])

        # a symbol may declare only one of its two limits
        symbols = dict.fromkeys(key[:-6] for key in frm
                                if key.endswith(("_lower", "_upper")))
        bounds = [(sym, limit(f"{sym}_lower"), limit(f"{sym}_upper"))
                  for sym in symbols]
        run = cp["run"] if cp.has_section("run") else {}
        return Scenario(
            name=sc.get("name", "custom"), kind=sc["kind"],
            engine=sc.get("engine", "relaxed"), domain=domain,
            gradient_coef=frm["gradient_coef"],
            zeroth_coef=frm["zeroth_coef"],
            damping_coef=frm.get("damping_coef"),
            nonlinearity=cp["nonlinearity"]["name"]
            if cp.has_section("nonlinearity") else "none",
            kappa1=cp["kernel1"]["expr"],
            offset1=cp["kernel1"].get("offset"),
            kappa2=cp["kernel2"]["expr"],
            offset2=cp["kernel2"].get("offset"),
            horizon=float(sc["horizon"]),
            m=int(run.get("m", 16)), h=float(run.get("h", 1e-3)),
            fs_step=float(run.get("fs_step", 0.0125)),
            bounds=tuple(bounds),
            manufactured_u=cp["manufactured"]["u_star"]
            if cp.has_section("manufactured") else None)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"invalid scenario configuration: {exc}") from exc
