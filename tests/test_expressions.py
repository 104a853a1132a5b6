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
    "__import__('os')", "[1,2]", "'str'", "1e999", "t - 1e999",
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


# every source after the first has a constant subterm whose value is not
# finite; it must stay unfolded, since 'inf' and 'nan' do not parse
ROUND_TRIP_SOURCES = ["exp(-t)*cos(x) + 1/2", "1/0", "exp(1000)", "-exp(1000)",
                      "sin(exp(1000))", "exp(1000) - exp(1000)", "x*exp(1000)",
                      "1e308*10"]


def test_source_round_trip():
    for text in ROUND_TRIP_SOURCES:
        e = parse_expression(text)
        e2 = parse_expression(e.source)
        assert e2.source == e.source, text
        with np.errstate(all="ignore"):
            for t, x in ((0.0, 0.4), (0.3, 0.0), (1.7, -2.0)):
                np.testing.assert_array_equal(e(t=t, x=x), e2(t=t, x=x))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_number_is_not_an_expression(value):
    with pytest.raises(ExpressionError):
        as_expression(value)


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


@pytest.mark.parametrize("src,source,at", [
    ("x/(t - 0.5)*0", "x/(t - 0.5)*0.0", {"t": 0.5, "x": 1.0}),
    ("0*exp(1000)", "0.0*exp(1000.0)", {}),
    ("0/(t - t)", "0.0/(t - t)", {"t": 1.0}),
    ("0/0", "0.0/0.0", {}),
])
def test_zero_keeps_a_subterm_that_is_not_finite(src, source, at):
    # numpy gives nan for each source at ``at``; so must its expression
    e = parse_expression(src)
    assert e.source == source
    with np.errstate(all="ignore"):
        assert np.isnan(e(**at))


@pytest.mark.parametrize("src,source", [
    ("0*t + 1", "1.0"), ("x*0 + t", "t"), ("0/2*x", "0.0"), ("2*0", "0.0"),
])
def test_zero_absorbs_a_number_or_a_variable(src, source):
    assert parse_expression(src).source == source
