"""Small scalar expression language for problem definitions.

Expressions define the right-hand side f(t, u), the Volterra kernel
k(t, s, u), the weight function psi(t) and the stability envelope phi(t)
of a problem file.  The grammar is standard infix arithmetic:

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;
    atom    = number | name | name "(" expr { "," expr } ")" | "(" expr ")" ;

``^`` is right-associative and binds tighter than unary minus; ``*``, ``/``,
``+``, ``-`` are left-associative.  Numbers are decimal literals with an
optional exponent (no hex or underscore forms).  The function catalog is
fixed: exp, log, sin, cos, sqrt, abs, pow.  Named constants: pi, e.

Parsed expressions are immutable and safe to share across threads;
:func:`evaluate` is reentrant and has no side effects.  Bindings may be
floats or numpy arrays (arrays broadcast elementwise), and evaluation of
the same tree on the same bindings is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Const",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "UnknownFunctionError",
    "UnboundVariableError",
    "EvalError",
    "parse",
    "evaluate",
    "to_source",
    "variables",
]


class ExprError(ValueError):
    """Base class for all expression-language errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text; carries a 1-based line:column position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownVariableError(ExprError):
    """A variable name not declared by the binding context."""

    def __init__(self, name, allowed, line, col):
        allowed_list = ", ".join(sorted(allowed)) if allowed else "(none)"
        super().__init__(
            f"{line}:{col}: unknown variable '{name}' (allowed: {allowed_list})"
        )
        self.name = name
        self.line = line
        self.col = col


class UnknownFunctionError(ExprError):
    """A call to a name outside the fixed function catalog."""

    def __init__(self, name, line, col):
        super().__init__(
            f"{line}:{col}: unknown function '{name}' "
            f"(catalog: {', '.join(sorted(_FUNCTIONS))})"
        )
        self.name = name
        self.line = line
        self.col = col


class UnboundVariableError(ExprError):
    """Evaluation reached a variable absent from the bindings."""


class EvalError(ExprError):
    """Domain violation during evaluation (division by zero, log of a
    non-positive value, negative sqrt argument, non-finite result)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Num | Var | Const | Neg | BinOp | Call

_CONSTANTS = {"pi": math.pi, "e": math.e}

# name -> (arity, ufunc); domain restrictions are enforced in evaluate()
_FUNCTIONS = {
    "exp": (1, np.exp),
    "log": (1, np.log),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "sqrt": (1, np.sqrt),
    "abs": (1, np.abs),
    "pow": (2, np.power),
}


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER NAME OP LPAREN RPAREN COMMA EOF
    text: str
    line: int
    col: int


def _tokenize(source):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            tokens.append(_Token("NUMBER", text, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("OP", c, line, start_col))
        elif c == "(":
            tokens.append(_Token("LPAREN", c, line, start_col))
        elif c == ")":
            tokens.append(_Token("RPAREN", c, line, start_col))
        elif c == ",":
            tokens.append(_Token("COMMA", c, line, start_col))
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", line, col)
        i += 1
        col += 1
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, precedence ^ > unary- > */ > +-)


class _Parser:
    def __init__(self, tokens, allowed_vars):
        self.tokens = tokens
        self.pos = 0
        self.allowed_vars = frozenset(allowed_vars)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "EOF" else "end of input"
            raise ExprSyntaxError(f"expected {what}, found {found}", tok.line, tok.col)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            # right operand is a factor: right-associative, admits unary minus
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "NAME":
            self.advance()
            if self.peek().kind == "LPAREN":
                return self.parse_call(tok)
            if tok.text in _CONSTANTS:
                return Const(tok.text)
            if tok.text not in self.allowed_vars:
                raise UnknownVariableError(
                    tok.text, self.allowed_vars, tok.line, tok.col
                )
            return Var(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN", "')'")
            return node
        found = repr(tok.text) if tok.kind != "EOF" else "end of input"
        raise ExprSyntaxError(f"expected a value, found {found}", tok.line, tok.col)

    def parse_call(self, name_tok):
        if name_tok.text not in _FUNCTIONS:
            raise UnknownFunctionError(name_tok.text, name_tok.line, name_tok.col)
        arity, _ = _FUNCTIONS[name_tok.text]
        self.expect("LPAREN", "'('")
        args = [self.parse_expr()]
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.parse_expr())
        close = self.expect("RPAREN", "')'")
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name_tok.text} takes {arity} argument(s), got {len(args)}",
                close.line,
                close.col,
            )
        return Call(name_tok.text, tuple(args))


def parse(source, allowed_vars):
    """Parse ``source`` into an immutable AST.

    Parameters
    ----------
    source : str
        Expression text.
    allowed_vars : iterable of str
        Variable names the binding context declares (e.g. ``{"t", "u"}``
        for f, ``{"t", "s", "u"}`` for the kernel).

    Raises
    ------
    ExprSyntaxError, UnknownVariableError, UnknownFunctionError
    """
    parser = _Parser(_tokenize(source), allowed_vars)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ExprSyntaxError(
            f"unexpected trailing input {tok.text!r}", tok.line, tok.col
        )
    return node


# ---------------------------------------------------------------------------
# Evaluation


def _check_finite(value, node):
    if not np.all(np.isfinite(value)):
        raise EvalError(f"non-finite result in '{to_source(node)}'")
    return value


def evaluate(expr, bindings):
    """Evaluate an AST under variable bindings.

    Bindings map variable names to floats or numpy arrays; arrays broadcast
    elementwise.  Division by zero, log of a non-positive value, sqrt of a
    negative value, fractional powers of negative bases, and non-finite
    results (overflow) all raise :class:`EvalError` rather than producing
    NaN or infinity.
    """
    with np.errstate(all="ignore"):
        return _eval(expr, bindings)


def _eval(node, bindings):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return _CONSTANTS[node.name]
    if isinstance(node, Var):
        try:
            return bindings[node.name]
        except KeyError:
            raise UnboundVariableError(f"variable '{node.name}' is not bound") from None
    if isinstance(node, Neg):
        return np.negative(_eval(node.operand, bindings))
    if isinstance(node, BinOp):
        left = _eval(node.left, bindings)
        right = _eval(node.right, bindings)
        if node.op == "+":
            return _check_finite(np.add(left, right), node)
        if node.op == "-":
            return _check_finite(np.subtract(left, right), node)
        if node.op == "*":
            return _check_finite(np.multiply(left, right), node)
        if node.op == "/":
            if np.any(np.equal(right, 0.0)):
                raise EvalError(f"division by zero in '{to_source(node)}'")
            return _check_finite(np.divide(left, right), node)
        return _power(left, right, node)
    if isinstance(node, Call):
        args = [_eval(arg, bindings) for arg in node.args]
        if node.func == "log":
            if np.any(np.less_equal(args[0], 0.0)):
                raise EvalError(f"log of non-positive value in '{to_source(node)}'")
        elif node.func == "sqrt":
            if np.any(np.less(args[0], 0.0)):
                raise EvalError(f"sqrt of negative value in '{to_source(node)}'")
        elif node.func == "pow":
            return _power(args[0], args[1], node)
        _, func = _FUNCTIONS[node.func]
        return _check_finite(func(*args), node)
    raise TypeError(f"not an expression node: {node!r}")


def _power(base, exponent, node):
    fractional = np.not_equal(exponent, np.floor(exponent))
    if np.any(np.logical_and(np.less(base, 0.0), fractional)):
        raise EvalError(
            f"fractional power of negative base in '{to_source(node)}'"
        )
    if np.any(np.logical_and(np.equal(base, 0.0), np.less(exponent, 0.0))):
        raise EvalError(f"zero raised to negative power in '{to_source(node)}'")
    return _check_finite(np.power(base, exponent), node)


def variables(node):
    """Names of the variables ``node`` uses, as a frozenset."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        return frozenset().union(*(variables(arg) for arg in node.args))
    return frozenset()


# ---------------------------------------------------------------------------
# Pretty-printer

# precedence levels used to decide parenthesization
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node):
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _LEVEL_ADD
        if node.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _wrap(text, needs_parens):
    return f"({text})" if needs_parens else text


def to_source(node):
    """Render an AST back to source text with minimal parentheses.

    For any AST the parser can produce, ``parse(to_source(ast))`` returns an
    equal AST (numeric literals are emitted via ``repr`` and are therefore
    exact; the parser never produces negative literals, so neither does a
    round-trippable AST).
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        return "-" + _wrap(inner, _level(node.operand) < _LEVEL_NEG)
    if isinstance(node, BinOp):
        lvl = _level(node)
        if node.op == "^":
            # the base may not be a bare power or unary minus; the exponent
            # is a factor, so only +-*/ chains below it need parens
            left = _wrap(to_source(node.left), _level(node.left) <= lvl)
            right = _wrap(to_source(node.right), _level(node.right) < _LEVEL_NEG)
        else:
            # left-associative: an equal-level right operand needs parens
            left = _wrap(to_source(node.left), _level(node.left) < lvl)
            right = _wrap(to_source(node.right), _level(node.right) <= lvl)
        return f"{left} {node.op} {right}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(to_source(arg) for arg in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")
