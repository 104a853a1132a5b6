import numpy as np
import pytest

import nonlocalwave as nlw
from nonlocalwave import CertificationError, ConfigurationError
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
    np.testing.assert_allclose(A.entries, np.diag([0.0, 1.0, 4.0]), atol=1e-12)


def test_assemble_identity_shift(basis3):
    A = nlw.assemble(form("1", "1"), basis3, 0.0)
    np.testing.assert_allclose(A.entries, np.diag([1.0, 2.0, 5.0]), atol=1e-12)


def test_assemble_time_scaling(basis3):
    A = nlw.assemble(form("1+t", None), basis3, 1.0)
    np.testing.assert_allclose(A.entries, np.diag([0.0, 2.0, 8.0]), atol=1e-11)


def test_assemble_hermitian_for_variable_coefficients():
    b = nlw.build_basis(nlw.interval(np.pi), 8)
    A = nlw.assemble(form("1 + cos(x)/2", "1 + x/4"), b, 0.3).entries
    assert np.max(np.abs(A - A.conj().T)) < 1e-12


def test_assemble_damping(basis3):
    M = nlw.assemble_damping(form("1", None, damping="2"), basis3, 0.0)
    np.testing.assert_allclose(M.entries, 2.0 * np.eye(3), atol=1e-12)
    with pytest.raises(ConfigurationError):
        nlw.assemble_damping(form("1", None), basis3, 0.0)


def test_build_Am_full_projection_is_identity(basis3):
    A = nlw.assemble(form("1", "1"), basis3, 0.0)
    Am = nlw.build_Am(A, basis3, 3, alpha=1.0)
    np.testing.assert_allclose(Am.entries, A.entries)


def test_build_Am_block_structure(basis3):
    A = nlw.assemble(form("1", None), basis3, 0.0)
    Am = nlw.build_Am(A, basis3, 2, alpha=1.0)
    np.testing.assert_allclose(Am.entries, np.diag([0.0, 1.0, 5.0]), atol=1e-12)
    with pytest.raises(ConfigurationError):
        nlw.build_Am(A, basis3, 4, alpha=1.0)


def test_build_Am_acts_as_projected_operator(rng):
    # for u in the resolved subspace, A_m u = P_m A u
    b = nlw.build_basis(nlw.interval(np.pi), 8)
    f = form("1 + cos(x)/2", "1")
    A = nlw.assemble(f, b, 0.5)
    m_sub = 5
    Am = nlw.build_Am(A, b, m_sub, alpha=2.0)
    for _ in range(5):
        u = np.zeros(8)
        u[:m_sub] = rng.standard_normal(m_sub)
        full = A.entries @ u
        full[m_sub:] = 0.0                      # P_{m_sub} A u
        np.testing.assert_allclose(Am.entries @ u, full, atol=1e-12)


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
        A = nlw.assemble(f, basis_pi8, t).entries
        assert vvprime_norm(A, vw) <= cert.bound_c * (1.0 + 1e-8)


def test_coercivity_witnessed_on_random_vectors(basis_pi8, rng):
    f = form("1 + t/2", "1")
    cert = nlw.certify(f, basis_pi8)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        u = rng.standard_normal(8)
        A = nlw.assemble(f, basis_pi8, t).entries
        _, v = nlw.norms(basis_pi8, u)
        quad = float(u @ A @ u) + cert.shift * float(u @ u)
        assert quad >= cert.coercivity_alpha * v ** 2 - 1e-10


def test_projected_operator_inherits_constants(basis_pi8):
    from nonlocalwave.forms import projected_supplier
    f = form("1 + t/2", "1")
    cert = nlw.certify(f, basis_pi8)
    alpha = 0.5
    sup = projected_supplier(f, basis_pi8, 5, alpha)
    cert_m = nlw.certify_operator(sup, basis_pi8, 1.0)
    assert cert_m.coercivity_alpha >= min(cert.coercivity_alpha, alpha) - 1e-10
    assert cert_m.bound_c <= max(cert.bound_c, alpha) + 1e-10


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
    k = nlw.NonlocalKernel(lambda s, x, y=None: x / (s - 0.5), 1.0)
    with pytest.raises(ConfigurationError):
        nlw.kernel_lipschitz(k, basis_pi8)

