"""Coefficient expression mini-language.

Grammar (deterministic recursive descent, '^' binds tightest):

    expr   := ('-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' base)?
    base   := number | ident | ident '(' args ')' | '(' expr ')'

Identifiers: the coordinates ``x`` (first interior coordinate), ``y`` (second,
strip only) and ``z`` (boundary arclength), plus the functions ``sin``,
``cos``, ``exp``, ``abs`` and ``step(a, b)``: the indicator of coord >= a
times b, where coord is ``z`` for boundary fields and ``x`` otherwise.
No general scripting: expressions are parsed once and evaluated pointwise.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from .errors import ConfigurationError


class ExpressionError(ConfigurationError):
    """Parse or evaluation failure in a coefficient expression."""


_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_FUNCTIONS = {
    "sin": (1, lambda a: math.sin(a[0])),
    "cos": (1, lambda a: math.cos(a[0])),
    "exp": (1, lambda a: math.exp(a[0])),
    "abs": (1, lambda a: abs(a[0])),
    "step": (2, None),  # needs the evaluation point, handled in _eval
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos} in {text!r}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(
                f"expected {kind} at position {tok[2]} in {self.text!r}, got {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ExpressionError(
                f"expected {value!r} at position {tok[2]} in {self.text!r}, got {tok[1]!r}")
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(
                f"trailing input {tok[1]!r} at position {tok[2]} in {self.text!r}")
        return node

    def expr(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = (op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            node = ("^", node, self.base())
        return node

    def base(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return ("num", float(value))
        if kind == "ident":
            self.take()
            if self.peek()[:2] == ("op", "("):
                self.take()
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.take("op", ")")
                if value not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r} at position {pos}")
                arity = _FUNCTIONS[value][0]
                if len(args) != arity:
                    raise ExpressionError(
                        f"function {value!r} takes {arity} argument(s), got {len(args)}")
                return ("call", value, args)
            return ("var", value)
        if (kind, value) == ("op", "("):
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise ExpressionError(f"unexpected token {value!r} at position {pos} in {self.text!r}")


def parse_expr(text: str):
    """Parse an expression into its AST; raises ExpressionError with position."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError(f"expression must be a non-empty string, got {text!r}")
    return _Parser(text).parse()


def _eval(node, env: Mapping[str, float]) -> float:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        name = node[1]
        if name not in env:
            raise ExpressionError(
                f"unknown variable {name!r}; available: {sorted(env)}")
        return float(env[name])
    if tag == "neg":
        return -_eval(node[1], env)
    if tag in "+-*/^":
        a = _eval(node[1], env)
        b = _eval(node[2], env)
        if tag == "+":
            return a + b
        if tag == "-":
            return a - b
        if tag == "*":
            return a * b
        if tag == "/":
            if b == 0.0:
                raise ExpressionError("division by zero")
            return a / b
        return a ** b
    if tag == "call":
        name, args = node[1], node[2]
        vals = [_eval(a, env) for a in args]
        if name == "step":
            coord = env.get("z", env.get("x"))
            if coord is None:
                raise ExpressionError("step() needs a coordinate (z or x) in scope")
            return vals[1] if coord >= vals[0] else 0.0
        return _FUNCTIONS[name][1](vals)
    raise ExpressionError(f"malformed expression node {node!r}")


def eval_coeff_expr(expr, point: Mapping[str, float]) -> float:
    """Evaluate an expression (text or pre-parsed AST) at one point.

    ``point`` maps coordinate names to values, e.g. {"x": 0.5} or
    {"z": 0.25, "x": 0.25, "y": 1.0}.
    """
    node = parse_expr(expr) if isinstance(expr, str) else expr
    val = _eval(node, point)
    if not math.isfinite(val):
        raise ExpressionError(f"expression evaluated to non-finite value {val!r}")
    return val

