import numpy as np
import pytest

from nonlocalwave import ExpressionError, parse_expression
from nonlocalwave.expressions import as_expression


def test_basic_evaluation():
    e = parse_expression("1 + t/2")
    assert e(t=2.0) == 2.0
    assert e(t=0.0) == 1.0


def test_vectorised_over_arrays():
    e = parse_expression("cos(x)*exp(-t)")
    x = np.linspace(0, np.pi, 5)
    np.testing.assert_allclose(e(t=1.0, x=x), np.cos(x) * np.exp(-1.0))


def test_all_grammar_elements():
    e = parse_expression("(1 - t)*sin(x) + exp(y)/2 - 3")
    assert np.isclose(e(t=0.5, x=np.pi / 2, y=0.0), 0.5 + 0.5 - 3)


@pytest.mark.parametrize("bad", [
    "t**2", "foo(t)", "z + 1", "t % 2", "lambda t: t", "cos(t, x)",
    "__import__('os')", "[1,2]", "'str'",
])
def test_grammar_rejection(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


@pytest.mark.parametrize("src,var", [
    ("1 + t/2", "t"),
    ("cos(x)*exp(-t)", "x"),
    ("cos(x)*exp(-t)", "t"),
    ("sin(t*x)/(1 + t)", "t"),
    ("exp(cos(x))", "x"),
])
def test_derivative_matches_finite_differences(src, var):
    e = parse_expression(src)
    d = e.diff(var)
    pt = {"t": 0.7, "x": 1.1, "y": 0.0}
    eps = 1e-6
    lo, hi = dict(pt), dict(pt)
    lo[var] -= eps
    hi[var] += eps
    fd = (e(**hi) - e(**lo)) / (2 * eps)
    assert np.isclose(d(**pt), fd, rtol=1e-8, atol=1e-8)


def test_source_round_trip():
    e = parse_expression("exp(-t)*cos(x) + 1/2")
    e2 = parse_expression(e.source)
    for t in (0.0, 0.3, 1.7):
        assert np.isclose(e(t=t, x=0.4), e2(t=t, x=0.4))


def test_algebra_operators():
    a = as_expression("t")
    b = as_expression("cos(x)")
    combo = a * b + 2.0 - a / 4.0
    assert np.isclose(combo(t=2.0, x=0.0), 2.0 + 2.0 - 0.5)
    assert np.isclose((-a)(t=3.0), -3.0)


def test_zero_denominator_gives_inf_not_an_exception():
    with np.errstate(divide="ignore"):
        assert parse_expression("1/(t - 0.5)")(t=0.5) == np.inf
        assert parse_expression("t + 1/(1 - 1)")(t=0.0) == np.inf


def test_depends_on():
    e = parse_expression("exp(-t)")
    assert e.depends_on("t") and not e.depends_on("x")


def test_constant_folding():
    e = parse_expression("2*3 + 0*t")
    assert e.source == "6.0" and e() == 6.0
