import numpy as np
import pytest

import nonlocalwave as nlw
from nonlocalwave import (CertificationError, ConfigurationError,
                          ExpressionError, forms, quadrature)
from nonlocalwave.forms import vvprime_norm


@pytest.fixture(scope="module")
def basis3():
    return nlw.build_basis(nlw.interval(np.pi), 3)


def form(grad, zeroth, damping=None, T=1.0, **bounds):
    def cf(sym, src):
        if src is None:
            return None
        lo, hi = bounds.get(sym, (None, None))
        return nlw.coefficient_field(sym, src, lower=lo, upper=hi)
    return nlw.FormSpec(cf("a", grad), cf("c", zeroth), cf("sigma", damping), T)


def test_assemble_laplacian_diagonal(basis3):
    A = nlw.assemble(form("1", None), basis3, 0.0)
    np.testing.assert_allclose(A, np.diag([0.0, 1.0, 4.0]), atol=1e-12)


def test_assemble_identity_shift(basis3):
    A = nlw.assemble(form("1", "1"), basis3, 0.0)
    np.testing.assert_allclose(A, np.diag([1.0, 2.0, 5.0]), atol=1e-12)


def test_assemble_time_scaling(basis3):
    A = nlw.assemble(form("1+t", None), basis3, 1.0)
    np.testing.assert_allclose(A, np.diag([0.0, 2.0, 8.0]), atol=1e-11)


def test_assemble_hermitian_for_variable_coefficients():
    b = nlw.build_basis(nlw.interval(np.pi), 8)
    A = nlw.assemble(form("1 + cos(x)/2", "1 + x/4"), b, 0.3)
    assert np.max(np.abs(A - A.conj().T)) < 1e-12


def test_assemble_damping(basis3):
    M = nlw.assemble_damping(form("1", None, damping="2"), basis3, 0.0)
    np.testing.assert_allclose(M, 2.0 * np.eye(3), atol=1e-12)
    with pytest.raises(ConfigurationError):
        nlw.assemble_damping(form("1", None), basis3, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_assembly_names_its_coefficient(basis3):
    f = form("1", "1/(t - 0.5)", damping="1/(0.5 - t)")
    calls = [lambda t: nlw.assemble(f, basis3, t),
             nlw.stiffness_supplier(f, basis3)]
    messages = set()
    for call in calls:
        with pytest.raises(ConfigurationError, match="coefficient 'c'") as err:
            call(0.5)
        messages.add(str(err.value))
    assert messages == {"assembly produced non-finite entries (coefficient "
                        "'c') at t=0.5"}
    for call in (lambda t: nlw.assemble_damping(f, basis3, t),
                 nlw.damping_supplier(f, basis3)):
        with pytest.raises(ConfigurationError, match="coefficient 'sigma'"):
            call(0.5)
    # a constant pole: c(t) = inf at every t, over t and without t
    for g, name in ((form("t + 1/(1 - 1)", "1"), "a"),
                    (form("1", "1/(1 - 1)"), "c")):
        for call in (lambda t: nlw.assemble(g, basis3, t),
                     nlw.stiffness_supplier(g, basis3)):
            with pytest.raises(ConfigurationError,
                               match=f"coefficient '{name}'"):
                call(0.2)


def test_coefficients_are_expressions():
    a = nlw.coefficient_field("a", "1 + t*cos(x)", lower=0.0)
    assert a.expression.source == "1.0 + t*cos(x)"
    np.testing.assert_array_equal(a(0.5, np.array([0.0, np.pi])), [1.5, 0.5])
    for bad in (lambda t, x, y: 1.0 + t * np.cos(x), None, [1.0]):
        with pytest.raises(ExpressionError):
            nlw.coefficient_field("a", bad)


SUPPLIER_COEFFICIENTS = ["1 + t/2", "(1 + t)*(2 + cos(x))",
                       "(1 + 0.1*sin(t))/(2 + x)", "1 + t*x + exp(-t*x)",
                       "1 + t*y - cos(x)*sin(t)*exp(-y)", "1 + t*exp(-y)",
                       "0.5"]


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
@pytest.mark.parametrize("coef", SUPPLIER_COEFFICIENTS)
def test_suppliers_match_quadrature(coef, domain):
    dom = nlw.interval(np.pi) if domain == "interval" else \
        nlw.rectangle(np.pi, 2.0)
    basis = nlw.build_basis(dom, 6)
    f = form(coef, "0.2 + " + coef, damping=coef)
    pairs = [(nlw.stiffness_supplier(f, basis), nlw.assemble),
             (nlw.damping_supplier(f, basis), nlw.assemble_damping)]
    for supplier, assemble in pairs:
        for t in (0.0, 0.37, 1.0):
            want = assemble(f, basis, t)
            got = supplier(t)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("coef", ["exp(-t*x)", "(1 + t)*(2 + cos(x))",
                                  "2 + cos(x)"])
def test_x_dependent_form_keeps_quadrature_bit_for_bit(coef, basis_pi8):
    f = form(coef, coef + "/4", damping=coef + "/2")
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(nlw.stiffness_supplier(f, basis_pi8)(t),
                              nlw.assemble(f, basis_pi8, t))
        assert np.array_equal(nlw.damping_supplier(f, basis_pi8)(t),
                              nlw.assemble_damping(f, basis_pi8, t))


def count_grams(monkeypatch):
    """Count the quadrature Gram products made from here on."""
    count = [0]
    gram = forms._weighted_gram

    def counted(*args):
        count[0] += 1
        return gram(*args)
    monkeypatch.setattr(forms, "_weighted_gram", counted)
    return count


@pytest.mark.parametrize("scenario", [nlw.scenario_undamped_neumann,
                                      nlw.scenario_population])
def test_tabulation_and_solve_make_no_quadrature(scenario, monkeypatch):
    sc = scenario()
    count = count_grams(monkeypatch)
    rz = nlw.realize(sc, m=8)
    # every shipped coefficient depends on t alone: one Gram matrix K
    # per coefficient, built with the suppliers
    assert count[0] == (2 if sc.damping_coef is None else 3)
    count[0] = 0
    nlw.solve_realization(rz)
    assert count[0] == 0


def test_x_dependent_tabulation_keeps_its_quadrature_count(basis_pi8,
                                                            monkeypatch):
    f = form("exp(-t*x)", None)
    grid = np.linspace(0.0, 1.0, 11)
    op = nlw.undamped_operator(nlw.stiffness_supplier(f, basis_pi8), 8)
    quadrature_op = nlw.undamped_operator(
        lambda t: nlw.assemble(f, basis_pi8, t), 8)
    count = count_grams(monkeypatch)
    want = nlw.fundamental_solution(quadrature_op, grid, h=1e-2)
    per_table = count[0]
    count[0] = 0
    got = nlw.fundamental_solution(op, grid, h=1e-2)
    assert count[0] == per_table > 0
    assert np.array_equal(got.blocks, want.blocks)


def test_certify_shifted_coercivity():
    b = nlw.build_basis(nlw.interval(np.pi), 8)
    cert = nlw.certify(form("2", "1"), b, shift=1.0)
    assert cert.coercivity_alpha >= 1.0
    # without the shift the minimum Rayleigh quotient is exactly 1 (at lam=0)
    cert0 = nlw.certify(form("2", "1"), b)
    assert np.isclose(cert0.coercivity_alpha, 1.0, atol=1e-10)


def test_certify_autonomous_has_zero_modulus():
    b = nlw.build_basis(nlw.interval(np.pi), 6)
    cert = nlw.certify(form("2", "1"), b)
    assert cert.omega_values.max() == 0.0
    assert cert.dini_integrals == (0.0, 0.0)
    assert not cert.dini_warning


def test_certify_linear_modulus():
    b = nlw.build_basis(nlw.interval(np.pi), 8)
    cert = nlw.certify(form("1+t", None), b, shift=1.0)
    ratios = cert.omega_values / cert.omega_deltas
    # |a(t)-a(s)| = |t-s| drives the form difference; slope is the V->V'
    # norm of the pure gradient form
    slope = vvprime_norm(np.diag(b.eigenvalues), b.v_weights)
    np.testing.assert_allclose(ratios, slope, rtol=1e-8)
    assert not cert.dini_warning


def test_certify_coefficient_bound_witness(basis_pi8):
    bad = form("t - 0.5", None, a=(0.0, None))
    with pytest.raises(CertificationError) as exc:
        nlw.certify(bad, basis_pi8, shift=1.0)
    assert exc.value.witness_time is not None
    assert exc.value.witness_point is not None


def test_certify_coercivity_failure_witness(basis_pi8):
    with pytest.raises(CertificationError) as exc:
        nlw.certify(form(None, "-1"), basis_pi8)
    assert exc.value.witness_vector is not None


def test_certified_bound_is_sharp_on_random_times(basis_pi8, rng):
    f = form("1 + t/2", "1")
    cert = nlw.certify(f, basis_pi8)
    vw = basis_pi8.v_weights
    for t in rng.uniform(0.0, 1.0, 100):
        A = nlw.assemble(f, basis_pi8, t)
        assert vvprime_norm(A, vw) <= cert.bound_c * (1.0 + 1e-8)


def test_coercivity_witnessed_on_random_vectors(basis_pi8, rng):
    f = form("1 + t/2", "1")
    cert = nlw.certify(f, basis_pi8)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        u = rng.standard_normal(8)
        A = nlw.assemble(f, basis_pi8, t)
        _, v = nlw.norms(basis_pi8, u)
        quad = float(u @ A @ u) + cert.shift * float(u @ u)
        assert quad >= cert.coercivity_alpha * v ** 2 - 1e-10


def test_kernel_lipschitz_zero(basis_pi8):
    k = nlw.nonlocal_kernel("0", 1.0)
    c = nlw.kernel_lipschitz(k, basis_pi8)
    assert c.into_h == 0.0 and c.gradient == 0.0


def test_kernel_lipschitz_constant(basis_pi8):
    T = 4.0
    k = nlw.nonlocal_kernel("0.25", T)        # kappa = 1/T
    c = nlw.kernel_lipschitz(k, basis_pi8)
    assert np.isclose(c.into_h, 1.0 / np.sqrt(T), rtol=1e-10)
    assert c.gradient == 0.0


def test_kernel_lipschitz_gradient(basis_pi8):
    k = nlw.nonlocal_kernel("cos(x)", 1.0)    # kappa = cos(x)/T with T = 1
    c = nlw.kernel_lipschitz(k, basis_pi8)
    assert np.isclose(c.into_h, 1.0, rtol=1e-10)
    assert np.isclose(c.gradient, 1.0, rtol=1e-10)
    assert np.isclose(c.into_v, np.sqrt(2.0), rtol=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_lipschitz_rejects_nonfinite(basis_pi8):
    k = nlw.nonlocal_kernel("x/(t - 0.5)", 1.0)
    with pytest.raises(ConfigurationError):
        nlw.kernel_lipschitz(k, basis_pi8)



def kernel_lipschitz_per_sample(kernel, basis):
    """One evaluator call and one gradient per sample time: the loop the
    batched kernel_lipschitz replaces."""
    if basis.nodes_y is None:
        xs, ys = np.linspace(0.0, basis.domain.lengths[0], 513), None
    else:
        g1 = np.linspace(0.0, basis.domain.lengths[0], 65)
        g2 = np.linspace(0.0, basis.domain.lengths[1], 65)
        xs, ys = np.repeat(g1, 65), np.tile(g2, 65)
    times = np.linspace(0.0, kernel.horizon, 129)
    sup_val, sup_grad = [], []
    for t in times:
        vals = np.broadcast_to(kernel.evaluator(t, xs, ys), xs.shape)
        sup_val.append(np.abs(vals).max())
        e = kernel.expression
        gx = e.diff("x")(t=t, x=xs, y=0.0 if ys is None else ys)
        gy = 0.0 if ys is None else e.diff("y")(t=t, x=xs, y=ys)
        sup_grad.append(np.broadcast_to(np.hypot(gx, gy), xs.shape).max())
    w = quadrature.composite_weights(times)
    return (np.sqrt(np.sum(w * np.square(sup_val))),
            np.sqrt(np.sum(w * np.square(sup_grad))))


KERNELS = {
    "time-only": "exp(-t)",
    "x-dependent": "(1 + t)*cos(x)*cos(y) + sin(2*t)*x",
}


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_lipschitz_matches_per_sample_loop(name, domain):
    dom = nlw.interval(np.pi) if domain == "interval" else \
        nlw.rectangle(np.pi, 2.0)
    basis = nlw.build_basis(dom, 4)
    kernel = nlw.nonlocal_kernel(KERNELS[name], 1.5)
    got = nlw.kernel_lipschitz(kernel, basis)
    want = kernel_lipschitz_per_sample(kernel, basis)
    assert want[0] > 0.0 and (want[1] > 0.0) == (name != "time-only")
    np.testing.assert_allclose(tuple(got), want, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_lipschitz_names_first_nonfinite_time(basis_pi8):
    # finite up to t = 0.75 exclusive; the sample times are k/128
    k = nlw.nonlocal_kernel("x/(t - 0.75)", 1.0)
    with pytest.raises(ConfigurationError, match=r"t=0\.75$"):
        nlw.kernel_lipschitz(k, basis_pi8)
