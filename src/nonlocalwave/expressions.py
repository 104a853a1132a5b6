"""Closed-form coefficient expressions over a small fixed grammar.

Scenario files describe coefficients, kernels and manufactured solutions as
text expressions built from numbers, the variables ``t``, ``x``, ``y``, the
binary operations ``+ - * /``, unary minus, and the functions ``cos``,
``sin``, ``exp``.  Expressions evaluate vectorised over numpy arrays and
support exact symbolic differentiation, which is what the manufactured
solution machinery relies on.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ExpressionError

_VARIABLES = ("t", "x", "y")
_FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp}

# Nodes are nested tuples:
#   ("num", c) ("var", name) ("add"|"sub"|"mul"|"div", a, b)
#   ("neg", a) ("call", fname, a)


def _number(value):
    """A number node; a literal such as 1e999 is rejected, because its
    source would render as 'inf', which does not parse."""
    value = float(value)
    if not np.isfinite(value):
        raise ExpressionError(f"non-finite number {value!r}")
    return ("num", value)


def _convert(node):
    if isinstance(node, ast.Expression):
        return _convert(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric constant {node.value!r}")
        return _number(node.value)
    if isinstance(node, ast.Name):
        if node.id not in _VARIABLES:
            raise ExpressionError(f"unknown variable {node.id!r}; allowed: t, x, y")
        return ("var", node.id)
    if isinstance(node, ast.BinOp):
        ops = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}
        kind = ops.get(type(node.op))
        if kind is None:
            raise ExpressionError(f"operator {type(node.op).__name__} not in grammar")
        return (kind, _convert(node.left), _convert(node.right))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return ("neg", _convert(node.operand))
        if isinstance(node.op, ast.UAdd):
            return _convert(node.operand)
        raise ExpressionError(f"operator {type(node.op).__name__} not in grammar")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only cos, sin, exp calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{node.func.id} takes exactly one argument")
        return ("call", node.func.id, _convert(node.args[0]))
    raise ExpressionError(f"syntax {type(node).__name__} not in grammar")


def _fold(node):
    """A node over numbers only, as the number it evaluates to when that is
    finite; otherwise the node itself (``exp(1000)``, ``1/0``), so that
    every rendered number parses again."""
    with np.errstate(all="ignore"):
        value = float(_evaluate(node, {}))
    return ("num", value) if np.isfinite(value) else node


def _simplify(node):
    kind = node[0]
    if kind in ("num", "var"):
        return node
    if kind == "neg":
        a = _simplify(node[1])
        if a[0] == "num":
            return ("num", -a[1])
        if a[0] == "neg":
            return a[1]
        return ("neg", a)
    if kind == "call":
        a = _simplify(node[2])
        node = ("call", node[1], a)
        return _fold(node) if a[0] == "num" else node
    a, b = _simplify(node[1]), _simplify(node[2])
    na, nb = a[0] == "num", b[0] == "num"
    if na and nb:
        folded = _fold((kind, a, b))
        if folded[0] == "num":
            return folded
    if kind == "add":
        if na and a[1] == 0.0:
            return b
        if nb and b[1] == 0.0:
            return a
    if kind == "sub":
        if nb and b[1] == 0.0:
            return a
        if na and a[1] == 0.0:
            return ("neg", b)
    # 0*a and 0/a are 0 only where a is finite (and a != 0 for 0/a), so a
    # zero absorbs only a number or a bare variable, and divides only a
    # nonzero number: x/(t - 0.5)*0 stays nan at t = 0.5
    if kind == "mul":
        if (na and a[1] == 0.0 and b[0] in ("num", "var")) or \
                (nb and b[1] == 0.0 and a[0] in ("num", "var")):
            return ("num", 0.0)
        if na and a[1] == 1.0:
            return b
        if nb and b[1] == 1.0:
            return a
    if kind == "div" and na and a[1] == 0.0 and nb and b[1] != 0.0:
        return ("num", 0.0)
    if kind == "div" and nb and b[1] == 1.0:
        return a
    return (kind, a, b)


def _evaluate(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], env)
    if kind == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    # numpy semantics for plain floats too: a zero denominator gives inf or
    # nan, which callers check for, never ZeroDivisionError
    return np.divide(a, b)


def _derivative(node, var):
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0 if node[1] == var else 0.0)
    if kind == "neg":
        return ("neg", _derivative(node[1], var))
    if kind == "add" or kind == "sub":
        return (kind, _derivative(node[1], var), _derivative(node[2], var))
    if kind == "mul":
        a, b = node[1], node[2]
        return ("add", ("mul", _derivative(a, var), b),
                ("mul", a, _derivative(b, var)))
    if kind == "div":
        a, b = node[1], node[2]
        num = ("sub", ("mul", _derivative(a, var), b),
               ("mul", a, _derivative(b, var)))
        return ("div", num, ("mul", b, b))
    fname, arg = node[1], node[2]
    da = _derivative(arg, var)
    if fname == "cos":
        outer = ("neg", ("call", "sin", arg))
    elif fname == "sin":
        outer = ("call", "cos", arg)
    else:  # exp
        outer = ("call", "exp", arg)
    return ("mul", outer, da)


def _render(node, parent_prec=0):
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        return node[1]
    if kind == "call":
        return f"{node[1]}({_render(node[2])})"
    if kind == "neg":
        inner = _render(node[1], 3)
        return f"-{inner}" if parent_prec < 3 else f"(-{inner})"
    prec = 1 if kind in ("add", "sub") else 2
    sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[kind]
    left = _render(node[1], prec - 1)
    # right operand of - and / binds tighter to preserve associativity
    right = _render(node[2], prec if kind in ("sub", "div") else prec - 1)
    text = f"{left}{sym}{right}"
    return f"({text})" if prec <= parent_prec else text


class Expression:
    """A parsed closed-form expression of (t, x, y)."""

    __slots__ = ("_node", "source")

    def __init__(self, node):
        self._node = _simplify(node)
        self.source = _render(self._node)

    def __call__(self, t=0.0, x=0.0, y=0.0):
        return _evaluate(self._node, {"t": t, "x": x, "y": y})

    def diff(self, var):
        """Exact derivative with respect to 't', 'x' or 'y'."""
        if var not in _VARIABLES:
            raise ExpressionError(f"cannot differentiate with respect to {var!r}")
        return Expression(_derivative(self._node, var))

    def depends_on(self, var):
        def walk(node):
            if node[0] == "var":
                return node[1] == var
            if node[0] in ("num",):
                return False
            if node[0] == "neg":
                return walk(node[1])
            if node[0] == "call":
                return walk(node[2])
            return walk(node[1]) or walk(node[2])
        return walk(self._node)

    def __add__(self, other):
        return Expression(("add", self._node, as_expression(other)._node))

    def __radd__(self, other):
        return Expression(("add", as_expression(other)._node, self._node))

    def __sub__(self, other):
        return Expression(("sub", self._node, as_expression(other)._node))

    def __rsub__(self, other):
        return Expression(("sub", as_expression(other)._node, self._node))

    def __mul__(self, other):
        return Expression(("mul", self._node, as_expression(other)._node))

    def __rmul__(self, other):
        return Expression(("mul", as_expression(other)._node, self._node))

    def __truediv__(self, other):
        return Expression(("div", self._node, as_expression(other)._node))

    def __neg__(self):
        return Expression(("neg", self._node))

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(text):
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`ExpressionError` for anything outside the grammar.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    return Expression(_convert(tree))


def as_expression(value):
    """Coerce a string, number or Expression into an Expression."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Expression(_number(value))
    if isinstance(value, str):
        return parse_expression(value)
    raise ExpressionError(f"cannot interpret {value!r} as an expression")
