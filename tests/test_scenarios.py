import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nonlocalwave as nlw
from nonlocalwave import ConfigurationError


def test_neumann_scenario_certificate():
    sc = nlw.scenario_undamped_neumann()
    basis = nlw.build_basis(sc.domain, 8)
    form = nlw.FormSpec(
        nlw.coefficient_field("a", sc.gradient_coef, lower=1.0, upper=1.5),
        nlw.coefficient_field("c", sc.zeroth_coef, lower=1.0),
        None, sc.horizon)
    cert = nlw.certify(form, basis)
    # c >= 1 and a >= 1 give coercivity without any shift: alpha >= min{1,1}
    assert cert.shift == 0.0
    assert cert.coercivity_alpha >= 1.0 - 1e-10


def test_neumann_kernel_constants():
    sc = nlw.scenario_undamped_neumann()
    basis = nlw.build_basis(sc.domain, 8)
    kg = nlw.nonlocal_kernel(sc.kappa1, sc.horizon)
    c = nlw.kernel_lipschitz(kg, basis)
    assert np.isclose(c.into_h, 0.5, rtol=1e-12)   # |1/(2T)|_{L2(0,1)} = 0.5


def test_neumann_zero_kernel_degenerates_to_zero_solution():
    sc = nlw.scenario_undamped_neumann()
    sc0 = dataclasses.replace(sc, kappa1="0", kappa2="0", offset1=None,
                              offset2=None, m=8)
    rz = nlw.realize(sc0)
    traj, rep = nlw.solve_realization(rz)
    assert traj.sup_h_norm() < 1e-12
    assert rep.residual_equation < 1e-5


def test_neumann_solution_certified(neumann_solved):
    _, traj, rep = neumann_solved
    assert rep.converged
    assert rep.residual_ic_u < 1e-6 and rep.residual_ic_v < 1e-6
    assert rep.residual_equation < 1e-4
    assert rep.gronwall_ok
    assert rep.growth_excess <= 1e-9


def test_population_gradient_coercivity():
    sc = nlw.scenario_population()
    basis = nlw.build_basis(sc.domain, 8)
    form = nlw.FormSpec(
        nlw.coefficient_field("d", sc.gradient_coef, lower=0.9, upper=1.1),
        nlw.coefficient_field("mu", sc.zeroth_coef, lower=0.2),
        nlw.coefficient_field("sigma", sc.damping_coef, lower=0.5),
        sc.horizon)
    cert = nlw.certify(form, basis)
    assert cert.gradient_coercivity >= 0.9 - 1e-9


def test_population_contraction_arithmetic(population_solved):
    _, traj, rep = population_solved
    assert rep.converged
    assert rep.predicted_q is not None
    if rep.predicted_q >= 1.0:
        # partition engaged with T* < 1, or the nonlocal part is irreducible
        assert (rep.t_star is not None and rep.t_star < 1.0) or \
            rep.q_nonlocal > 0.9
    assert rep.measured_ratio is None or rep.measured_ratio < 1.0


def test_population_zero_damping_matches_undamped_solver():
    sc = nlw.scenario_population()
    scz = dataclasses.replace(sc, damping_coef="0", m=8)
    rz = nlw.realize(scz)
    traj_d, _ = nlw.solve_realization(rz)
    undamped = dataclasses.replace(scz, kind="undamped", damping_coef=None,
                                   engine="contraction")
    rz_u = nlw.realize(undamped)
    traj_u, _ = nlw.solve_realization(rz_u)
    assert np.abs(traj_d.u - traj_u.u).max() < 1e-9


def test_manufactured_cosine():
    mk = nlw.builtin_scenarios()["manufactured_coscos"]
    rz = nlw.realize(mk, m=8)
    traj, rep = nlw.solve_realization(rz)
    sup_coef, sup_fun = nlw.manufactured_errors(rz, traj)
    assert sup_coef < 1e-5 and sup_fun < 1e-5


def test_manufactured_zero_solution():
    sc = nlw.manufactured("0", nlw.scenario_undamped_neumann())
    rz = nlw.realize(sc, m=4)
    traj, _ = nlw.solve_realization(rz)
    assert traj.sup_h_norm() < 1e-10


def test_manufactured_damped_critical():
    # u*(t) = (1+t) e^{-t} constant in space, on a damped skeleton with
    # A = 1, B = 2 blocks (scalar critically damped pair)
    skeleton = nlw.Scenario(
        name="damped_toy", kind="damped", engine="contraction",
        domain=nlw.interval(1.0), gradient_coef="0", zeroth_coef="1",
        damping_coef="2", nonlinearity="none",
        kappa1="0", offset1=None, kappa2="0", offset2=None,
        horizon=1.0, m=1, h=1e-3, fs_step=1.0 / 64.0)
    sc = nlw.manufactured("(1 + t)*exp(-t)", skeleton)
    rz = nlw.realize(sc)
    traj, _ = nlw.solve_realization(rz)
    expect = (1.0 + rz.grid) * np.exp(-rz.grid)
    assert np.abs(traj.u[:, 0] - expect).max() < 1e-8


def test_manufactured_span_rejection():
    sc = nlw.manufactured("cos(t)*cos(3*x)", nlw.scenario_undamped_neumann())
    with pytest.raises(ConfigurationError) as exc:
        nlw.realize(sc, m=2)
    assert "projection defect" in str(exc.value)
    # with enough modes the same solution is accepted
    nlw.realize(sc, m=8)


@pytest.mark.parametrize("override", [{"m": 0}, {"m": -3}, {"h": 0.0},
                                      {"fs_step": 0.0}])
def test_realize_rejects_zero_overrides(monkeypatch, override):
    # zero is a value, not "use the scenario's default"
    def unreachable(*args, **kwargs):
        raise AssertionError("build_basis reached")
    monkeypatch.setattr(nlw.scenarios, "build_basis", unreachable)
    with pytest.raises(ConfigurationError):
        nlw.realize(nlw.scenario_undamped_neumann(), **override)


@pytest.mark.parametrize("fs_step", [0.06, 0.7])
def test_realize_rejects_step_that_does_not_divide_horizon(monkeypatch,
                                                           fs_step):
    # the grid used to be rounded to the nearest node count: 0.06 solved on
    # 18 nodes 1/17 apart, 0.7 on two nodes, while the manifest kept 0.06
    def unreachable(*args, **kwargs):
        raise AssertionError("build_basis reached")
    monkeypatch.setattr(nlw.scenarios, "build_basis", unreachable)
    with pytest.raises(ConfigurationError, match="does not divide"):
        nlw.realize(nlw.scenario_undamped_neumann(), fs_step=fs_step)


def test_realize_accepts_step_that_divides_horizon():
    # the axioms grid, 0.1 T, on a horizon that no binary float divides
    T = np.pi / 2
    sc = dataclasses.replace(nlw.scenario_undamped_neumann(), horizon=T)
    rz = nlw.realize(sc, m=2, fs_step=0.1 * T)
    assert rz.grid.size == 11
    np.testing.assert_allclose(np.diff(rz.grid), 0.1 * T, rtol=1e-12)


def test_kind_damping_consistency_check():
    sc = nlw.scenario_population()
    bad = dataclasses.replace(sc, damping_coef=None)
    with pytest.raises(ConfigurationError):
        nlw.realize(bad, m=2)


def test_scenario_round_trip(tmp_path):
    one_sided = dataclasses.replace(
        nlw.scenario_undamped_neumann(), name="one_sided",
        bounds=(("a", None, 1.5), ("c", 1.0, None)))
    for sc in (nlw.scenario_undamped_neumann(), nlw.scenario_population(),
               nlw.builtin_scenarios()["manufactured_coscos"], one_sided):
        path = tmp_path / f"{sc.name}.cfg"
        nlw.save_scenario(sc, path)
        back = nlw.load_scenario(path)
        assert back.kind == sc.kind and back.engine == sc.engine
        assert back.gradient_coef == sc.gradient_coef
        assert back.kappa1 == sc.kappa1 and back.offset1 == sc.offset1
        assert back.m == sc.m and back.fs_step == sc.fs_step
        assert back.manufactured_u == sc.manufactured_u
        assert back.horizon == sc.horizon
        assert set(back.bounds) == set(sc.bounds)


def expression_texts():
    leaves = st.one_of(
        st.sampled_from(["t", "x", "y"]),
        st.floats(-1e3, 1e3, allow_nan=False).map(repr))

    def grow(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(
                lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
            st.tuples(st.sampled_from(["cos", "sin", "exp", "-"]), sub).map(
                lambda p: f"{p[0]}({p[1]})"))
    return st.recursive(leaves, grow, max_leaves=6)


sources = expression_texts().map(lambda text: nlw.parse_expression(text).source)
positive = st.floats(1e-6, 1e6)
limits = st.floats(-1e6, 1e6)


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["undamped", "damped"]))
    quad = draw(st.sampled_from([0, 0, 7, 40]))
    domain = draw(st.one_of(
        st.builds(nlw.interval, positive, st.just(quad)),
        st.builds(nlw.rectangle, positive, positive, st.just(quad))))
    symbols = draw(st.lists(
        st.sampled_from(("a", "c", "sigma") if kind == "undamped"
                        else ("d", "mu", "sigma")), unique=True, max_size=3))
    bounds = tuple(draw(st.one_of(
        st.tuples(st.just(sym), limits, st.none()),
        st.tuples(st.just(sym), st.none(), limits),
        st.tuples(st.just(sym), limits, limits))) for sym in symbols)
    return nlw.Scenario(
        name=draw(st.text(st.characters(min_codepoint=33, max_codepoint=126),
                          min_size=1, max_size=12)),
        kind=kind, engine=draw(st.sampled_from(["relaxed", "contraction"])),
        domain=domain, gradient_coef=draw(sources),
        zeroth_coef=draw(sources), damping_coef=draw(st.none() | sources),
        nonlinearity=draw(st.sampled_from(["none", "tanh", "logistic"])),
        kappa1=draw(sources), offset1=draw(st.none() | sources),
        kappa2=draw(sources), offset2=draw(st.none() | sources),
        horizon=draw(positive), m=draw(st.integers(1, 512)),
        h=draw(positive), fs_step=draw(positive), bounds=bounds,
        manufactured_u=draw(st.none() | sources))


# constant folding may overflow (exp(exp(...))) and render "inf" or "nan"
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(sc=scenarios())
@example(sc=dataclasses.replace(nlw.scenario_population(), name="100%"))
def test_scenario_file_round_trip(tmp_path_factory, sc):
    # names are printable ASCII without spaces, since a config value loses
    # its outer whitespace; the example's "%" is no interpolation marker
    path = tmp_path_factory.mktemp("round_trip") / "scenario.cfg"
    nlw.save_scenario(sc, path)
    assert nlw.load_scenario(path) == sc


@pytest.mark.parametrize("line, typo", [("kind = undamped", "undampd"),
                                        ("engine = relaxed", "contraciton")])
def test_load_rejects_misspelt_kind_or_engine(tmp_path, line, typo):
    path = tmp_path / "typo.cfg"
    nlw.save_scenario(nlw.scenario_undamped_neumann(), path)
    text = path.read_text()
    assert text.count(line) == 1
    path.write_text(text.replace(line, line.split(" = ")[0] + " = " + typo))
    with pytest.raises(ConfigurationError, match=typo):
        nlw.load_scenario(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        nlw.load_scenario(tmp_path / "missing.cfg")


def test_refinement_sweep_small():
    table = nlw.refinement_sweep(nlw.scenario_population(), [4, 8],
                                 fs_step=0.05)
    assert table.finest_m == 8
    assert table.rows[0].traj_diff > 0.0
    assert table.diffs_nonincreasing()
