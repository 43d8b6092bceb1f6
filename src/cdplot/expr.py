"""Arithmetic expression language used for structural equations.

Grammar, highest precedence first::

    atom   : NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'
    power  : atom ('^' unary)?            right-associative
    unary  : '-' unary | power
    term   : unary (('*' | '/') unary)*
    expr   : term (('+' | '-') term)*

``^`` binds tighter than unary minus, so ``-X^2`` means ``-(X^2)``, and
``2^3^2`` means ``2^(3^2)``. Numeric literals are decimal doubles with
optional scientific notation. The function set is fixed: sin, cos, exp,
log, abs, sqrt take one argument; min, max, pow take two.

Expression trees are immutable and evaluation is pure, so a tree may be
shared freely between threads. Evaluation never returns NaN or infinity:
domain problems (log of a nonpositive value, division by zero, overflow)
raise EvaluationError instead. The canonical printer ``to_source`` and
``parse`` round-trip: ``parse(to_source(e))`` is structurally equal to
``e`` for any tree the parser can produce. The parser never creates a
negative Const (a leading minus becomes a Neg node), so canonical trees
represent negation via Neg.

Nesting is bounded: ``parse`` rejects source nested deeper than
``MAX_DEPTH`` levels with a ParseError. The depth of an operand is the
number of operators, function calls and parentheses around it, so a
left-deep sum of n terms is n - 1 deep. Every walk over a parsed tree
(evaluation, printing, variable lookup) recurses at most that deep, so
none of them can exhaust Python's recursion limit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import CdpError

__all__ = [
    "BinOp",
    "Call",
    "Const",
    "EvaluationError",
    "Expression",
    "ExpressionError",
    "FUNCTION_ARITY",
    "MAX_DEPTH",
    "Neg",
    "ParseError",
    "Var",
    "evaluate",
    "evaluate_batch",
    "free_variables",
    "parse",
    "to_source",
]

FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "abs": 1,
    "sqrt": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}

MAX_DEPTH = 100  # nesting levels parse accepts; see the module docstring

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_BINARY_OPS = ("+", "-", "*", "/", "^")


class ExpressionError(CdpError):
    """Problem with an expression tree or its evaluation."""


class ParseError(ExpressionError):
    """Syntax error in expression source; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class EvaluationError(ExpressionError):
    """Evaluation failed: unbound variable or numeric domain error."""


@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ExpressionError("constants must be finite")


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ExpressionError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ExpressionError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expression", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        arity = FUNCTION_ARITY.get(self.func)
        if arity is None:
            raise ExpressionError(f"unknown function {self.func!r}")
        if len(self.args) != arity:
            raise ExpressionError(
                f"function '{self.func}' expects {arity} argument(s), got {len(self.args)}"
            )


Expression = Union[Const, Var, Neg, BinOp, Call]


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _byte_offset(source: str, char_pos: int) -> int:
    return len(source[:char_pos].encode("utf-8"))


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {source[pos]!r}", _byte_offset(source, pos)
            )
        kind = str(match.lastgroup)
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.open = 0  # the calls, parentheses, minuses and powers being parsed

    def error(self, message: str, token_index: int | None = None) -> ParseError:
        index = self.pos if token_index is None else token_index
        if index < len(self.tokens):
            char_pos = self.tokens[index][2]
        else:
            char_pos = len(self.source)
        return ParseError(message, _byte_offset(self.source, char_pos))

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return token

    def accept_op(self, *ops: str) -> str | None:
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] in ops:
            self.pos += 1
            return token[1]
        return None

    def expect_op(self, op: str) -> None:
        if self.accept_op(op) is None:
            raise self.error(f"expected {op!r}")

    def too_deep(self) -> ParseError:
        return self.error(f"expression nested deeper than {MAX_DEPTH} levels")

    def inner(self, parse) -> tuple[Expression, int]:
        """parse() one level further in. Counting the levels on the way
        down bounds the parser's own recursion."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise self.too_deep()
        parsed = parse()
        self.open -= 1
        return parsed

    def node(self, tree: Expression, *depths: int) -> tuple[Expression, int]:
        """tree, whose operands are as deep as depths, with its own depth.
        Counting on the way up catches a long chain of binary operators,
        whose depth is known only once it is parsed."""
        depth = 1 + max(depths)
        if self.open + depth > MAX_DEPTH:
            raise self.too_deep()
        return tree, depth

    # Each rule returns its tree and the tree's nesting depth.

    def parse(self) -> Expression:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        tree, _ = self.expr()
        if self.peek() is not None:
            raise self.error("unexpected trailing input")
        return tree

    def expr(self) -> tuple[Expression, int]:
        tree, depth = self.term()
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                return tree, depth
            right, right_depth = self.term()
            tree, depth = self.node(BinOp(op, tree, right), depth, right_depth)

    def term(self) -> tuple[Expression, int]:
        tree, depth = self.unary()
        while True:
            op = self.accept_op("*", "/")
            if op is None:
                return tree, depth
            right, right_depth = self.unary()
            tree, depth = self.node(BinOp(op, tree, right), depth, right_depth)

    def unary(self) -> tuple[Expression, int]:
        if self.accept_op("-"):
            operand, depth = self.inner(self.unary)
            return self.node(Neg(operand), depth)
        return self.power()

    def power(self) -> tuple[Expression, int]:
        base, depth = self.atom()
        if self.accept_op("^"):
            # The exponent re-enters unary so "2^-3" works; recursing at
            # this level rather than looping makes ^ right-associative.
            exponent, exponent_depth = self.inner(self.unary)
            return self.node(BinOp("^", base, exponent), depth, exponent_depth)
        return base, depth

    def atom(self) -> tuple[Expression, int]:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of input")
        kind, text, _ = token
        if kind == "num":
            self.take()
            value = float(text)
            if not math.isfinite(value):
                raise self.error("numeric literal out of range", self.pos - 1)
            return Const(value), 0
        if kind == "name":
            self.take()
            if self.accept_op("("):
                return self.call(text, self.pos - 2)
            return Var(text), 0
        if kind == "op" and text == "(":
            self.take()
            tree, depth = self.inner(self.expr)
            self.expect_op(")")
            return self.node(tree, depth)  # the parentheses are a level
        raise self.error(f"unexpected token {text!r}")

    def call(self, func: str, name_index: int) -> tuple[Expression, int]:
        arity = FUNCTION_ARITY.get(func)
        if arity is None:
            raise self.error(f"unknown function {func!r}", name_index)
        args = [self.inner(self.expr)]
        while self.accept_op(","):
            args.append(self.inner(self.expr))
        self.expect_op(")")
        if len(args) != arity:
            raise self.error(
                f"function '{func}' expects {arity} argument(s), got {len(args)}",
                name_index,
            )
        return self.node(Call(func, tuple(a for a, _ in args)), *(d for _, d in args))


def parse(source: str) -> Expression:
    """Parse expression source text into a tree; raises ParseError."""
    if not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source).parse()


# --- printing --------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(expr: Expression) -> int:
    if isinstance(expr, Const):
        # negative literals print with a leading minus, so they need
        # unary precedence or (-3)^2 would reprint as -3^2
        return _LEVEL_UNARY if math.copysign(1.0, expr.value) < 0 else _LEVEL_ATOM
    if isinstance(expr, (Var, Call)):
        return _LEVEL_ATOM
    if isinstance(expr, Neg):
        return _LEVEL_UNARY
    if expr.op in ("+", "-"):
        return _LEVEL_ADD
    if expr.op in ("*", "/"):
        return _LEVEL_MUL
    return _LEVEL_POW


def _wrap(expr: Expression, minimum: int) -> str:
    text = to_source(expr)
    return f"({text})" if _level(expr) < minimum else text


def to_source(expr: Expression) -> str:
    """Canonical source text; parse(to_source(e)) reproduces e."""
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return "-" + _wrap(expr.operand, _LEVEL_UNARY)
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(to_source(a) for a in expr.args)})"
    if expr.op in ("+", "-"):
        left = _wrap(expr.left, _LEVEL_ADD)
        right = _wrap(expr.right, _LEVEL_ADD + 1)
        return f"{left} {expr.op} {right}"
    if expr.op in ("*", "/"):
        left = _wrap(expr.left, _LEVEL_MUL)
        right = _wrap(expr.right, _LEVEL_MUL + 1)
        return f"{left}{expr.op}{right}"
    # '^': left must be an atom to survive re-parsing; the right side sits
    # at unary level so a Neg exponent prints without parentheses.
    left = _wrap(expr.left, _LEVEL_ATOM)
    right = _wrap(expr.right, _LEVEL_UNARY)
    return f"{left}^{right}"


def free_variables(expr: Expression) -> set[str]:
    """Set of variable names referenced anywhere in the tree."""
    names: set[str] = set()
    stack: list[Expression] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Call):
            stack.extend(node.args)
    return names


# --- evaluation ------------------------------------------------------------


def evaluate(expr: Expression, env: Mapping[str, float]) -> float:
    """Evaluate the tree with scalar bindings; raises EvaluationError.
    This is evaluate_batch on one-row columns, so a scalar result is
    bit for bit the batch result for the same row."""
    columns = {}
    for name in free_variables(expr):
        if name not in env:
            raise EvaluationError(f"unbound variable '{name}'")
        value = float(env[name])
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite result in variable '{name}'")
        columns[name] = np.array([value])
    return float(evaluate_batch(expr, columns, 1)[0])


def _batch_check(value, what: str):
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"non-finite result in {what}")
    return value


def _eval_array(expr: Expression, env: Mapping[str, np.ndarray]):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound variable '{expr.name}'") from None
    if isinstance(expr, Neg):
        return -_eval_array(expr.operand, env)
    if isinstance(expr, BinOp):
        left = _eval_array(expr.left, env)
        right = _eval_array(expr.right, env)
        with np.errstate(all="ignore"):
            if expr.op == "+":
                return _batch_check(left + right, "'+'")
            if expr.op == "-":
                return _batch_check(left - right, "'-'")
            if expr.op == "*":
                return _batch_check(left * right, "'*'")
            if expr.op == "/":
                return _batch_check(np.divide(left, right), "'/'")
            return _batch_check(np.power(left, right), "'^'")
    args = [_eval_array(a, env) for a in expr.args]
    func = expr.func
    with np.errstate(all="ignore"):
        if func == "log":
            return _batch_check(np.log(args[0]), "log")
        if func == "sqrt":
            return _batch_check(np.sqrt(args[0]), "sqrt")
        if func == "exp":
            return _batch_check(np.exp(args[0]), "exp")
        if func == "sin":
            return np.sin(args[0])
        if func == "cos":
            return np.cos(args[0])
        if func == "abs":
            return np.abs(args[0])
        if func == "min":
            return np.minimum(args[0], args[1])
        if func == "max":
            return np.maximum(args[0], args[1])
        return _batch_check(np.power(args[0], args[1]), "pow")


def evaluate_batch(expr: Expression, env: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Evaluate over length-n column bindings; the bulk path used by the
    model machinery. Each row's value depends only on that row, and any
    domain problem (non-finite intermediate) is a hard error."""
    result = _eval_array(expr, env)
    if np.ndim(result) == 0:
        return np.full(n, float(result))
    out = np.asarray(result, dtype=np.float64)
    if out.shape != (n,):
        raise EvaluationError(f"expected {n} values, got shape {out.shape}")
    return out
