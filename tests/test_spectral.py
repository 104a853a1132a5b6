import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonlocalwave as nlw
from nonlocalwave import ConfigurationError


def coeff_arrays(m, max_mag=10.0):
    return st.lists(st.floats(-max_mag, max_mag, allow_nan=False),
                    min_size=m, max_size=m).map(np.array)


def test_interval_eigenvalues():
    b = nlw.build_basis(nlw.interval(np.pi), 3)
    np.testing.assert_allclose(b.eigenvalues, [0.0, 1.0, 4.0], atol=1e-12)


def test_single_constant_mode():
    b = nlw.build_basis(nlw.interval(np.pi), 1)
    assert b.eigenvalues[0] == 0.0
    np.testing.assert_allclose(b.eval_table, 1.0 / np.sqrt(np.pi))


def test_rectangle_eigenvalues():
    b = nlw.build_basis(nlw.rectangle(np.pi, np.pi), 4)
    np.testing.assert_allclose(b.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("domain,m", [
    (nlw.interval(np.pi), 4),
    (nlw.interval(np.pi), 16),
    (nlw.interval(np.pi), 32),
    (nlw.interval(1.0), 8),
    (nlw.rectangle(np.pi, np.pi), 8),
    (nlw.rectangle(1.0, 2.0), 6),
])
def test_gram_identity(domain, m):
    b = nlw.build_basis(domain, m)
    gram = (b.eval_table * b.weights) @ b.eval_table.T
    assert np.max(np.abs(gram - np.eye(m))) < 1e-12


def test_invalid_domains():
    with pytest.raises(ConfigurationError):
        nlw.interval(-1.0)
    with pytest.raises(ConfigurationError):
        nlw.rectangle(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        nlw.build_basis(nlw.interval(1.0), 0)
    # NaN passed a check written as L <= 0 and gave an all-NaN basis
    for make in (lambda: nlw.interval(np.nan), lambda: nlw.interval(np.inf),
                 lambda: nlw.rectangle(1.0, np.nan)):
        with pytest.raises(ConfigurationError, match="finite"):
            make()


def test_build_basis_rejects_a_nan_gram_defect():
    domain = nlw.interval(1.0)
    object.__setattr__(domain, "lengths", (np.nan,))
    with pytest.raises(ConfigurationError, match="orthonormal"):
        nlw.build_basis(domain, 4)


def test_project_zero(basis_pi8):
    np.testing.assert_allclose(nlw.project(basis_pi8, lambda x: 0.0 * x), 0.0)


def test_project_cosine(basis_pi8):
    c = nlw.project(basis_pi8, np.cos)
    assert np.isclose(c[1], np.sqrt(np.pi / 2), atol=1e-12)
    others = np.delete(c, 1)
    assert np.max(np.abs(others)) < 1e-12


def test_project_basis_mode_gives_unit_vector(basis_pi8):
    c = nlw.project(basis_pi8, basis_pi8.eval_table[2])
    expect = np.zeros(8)
    expect[2] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-12)


def test_project_rejects_nonfinite(basis_pi8):
    bad = np.full(basis_pi8.nodes_x.size, np.nan)
    with pytest.raises(ConfigurationError):
        nlw.project(basis_pi8, bad)


def test_norm_examples():
    b = nlw.build_basis(nlw.interval(np.pi), 3)
    h, v = nlw.norms(b, np.array([1.0, 0.0, 0.0]))   # constant mode, lam = 0
    assert h == v == 1.0
    # basis with lambda_1 = 3: interval of length pi/sqrt(3)
    b3 = nlw.build_basis(nlw.interval(np.pi / np.sqrt(3.0)), 2)
    assert np.isclose(b3.eigenvalues[1], 3.0)
    h, v = nlw.norms(b3, np.array([0.0, 1.0]))
    assert np.isclose(h, 1.0) and np.isclose(v, 2.0)
    h, v = nlw.norms(b, np.zeros(3))
    assert h == 0.0 and v == 0.0


@settings(max_examples=30, deadline=None)
@given(coeffs=coeff_arrays(8))
def test_projection_round_trip(basis_pi8, coeffs):
    back = nlw.project(basis_pi8, basis_pi8.evaluate(coeffs))
    assert np.max(np.abs(back - coeffs)) < 1e-10 * max(1.0, np.abs(coeffs).max())


@settings(max_examples=30, deadline=None)
@given(coeffs=coeff_arrays(8))
def test_embedding_inequality(basis_pi8, coeffs):
    h, v = nlw.norms(basis_pi8, coeffs)
    assert h <= v + 1e-14


def test_projection_self_adjoint(basis_pi8, rng):
    # <P f, g>_H = <f, P g>_H for sampled functions, discrete inner product
    w = basis_pi8.weights
    proj = basis_pi8.eval_table.T @ (basis_pi8.eval_table * w)
    for _ in range(10):
        f = rng.standard_normal(w.size)
        g = rng.standard_normal(w.size)
        lhs = np.sum(w * (proj @ f) * g)
        rhs = np.sum(w * f * (proj @ g))
        assert np.isclose(lhs, rhs, atol=1e-11)


def test_trajectory_validation():
    grid = np.linspace(0, 1, 5)
    with pytest.raises(ConfigurationError):
        nlw.Trajectory(grid, np.zeros((4, 3)), np.zeros((5, 3)))
    traj = nlw.zero_trajectory(grid, 3)
    assert traj.sup_h_norm() == 0.0 and traj.m == 3
