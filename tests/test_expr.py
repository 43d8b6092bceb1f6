"""Expression language: parsing, printing, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdplot.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    ExpressionError,
    Neg,
    ParseError,
    Var,
    evaluate,
    evaluate_batch,
    free_variables,
    _level,
    parse,
    to_source,
)


def test_parse_cubic_term():
    assert parse("2*P^3") == BinOp("*", Const(2.0), BinOp("^", Var("P"), Const(3.0)))


def test_parse_bare_variable():
    assert parse("X") == Var("X")


def test_unary_minus_binds_looser_than_power():
    # -X^2 must mean -(X^2); the hand-built tree is the oracle
    tree = parse("-X^2")
    assert tree == Neg(BinOp("^", Var("X"), Const(2.0)))
    assert evaluate(tree, {"X": 2.0}) == -4.0


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2"), {}) == 512.0


def test_precedence_mul_over_add():
    assert evaluate(parse("2+3*4"), {}) == 14.0


def test_salary_equation_value():
    assert evaluate(parse("F - P^2"), {"F": 2.0, "P": 1.5}) == -0.25


def test_mediation_equation_value():
    assert evaluate(parse("M^2 - 0.5*X^2"), {"M": 2.0, "X": 2.0}) == 2.0


def test_simple_product():
    assert evaluate(parse("2*P^3"), {"P": 1.0}) == 2.0


def test_parentheses_override_precedence():
    assert evaluate(parse("(2+3)*4"), {}) == 20.0
    assert evaluate(parse("(-X)^2"), {"X": 2.0}) == 4.0


def test_functions_unary_and_binary():
    assert evaluate(parse("sin(0)"), {}) == 0.0
    assert evaluate(parse("exp(0)"), {}) == 1.0
    assert evaluate(parse("sqrt(9)"), {}) == 3.0
    assert evaluate(parse("abs(-3)"), {}) == 3.0
    assert evaluate(parse("min(2, 5)"), {}) == 2.0
    assert evaluate(parse("max(2, 5)"), {}) == 5.0
    assert evaluate(parse("pow(2, 10)"), {}) == 1024.0
    assert math.isclose(evaluate(parse("log(exp(2))"), {}), 2.0)


def test_scientific_notation_literals():
    assert evaluate(parse("1.5e2"), {}) == 150.0
    assert evaluate(parse("2.5E-1"), {}) == 0.25


def test_free_variables():
    assert free_variables(parse("2*P^3")) == {"P"}
    assert free_variables(parse("F - P^2")) == {"F", "P"}
    assert free_variables(parse("3.0")) == set()


def test_unbound_variable_is_an_error():
    with pytest.raises(ExpressionError, match="unbound"):
        evaluate(parse("F - P^2"), {"F": 2.0})


def test_division_by_zero_is_hard_error():
    with pytest.raises(ExpressionError):
        evaluate(parse("1/X"), {"X": 0.0})


def test_log_of_nonpositive_is_hard_error():
    with pytest.raises(ExpressionError):
        evaluate(parse("log(X)"), {"X": 0.0})
    with pytest.raises(ExpressionError):
        evaluate(parse("log(X)"), {"X": -1.0})


def test_sqrt_of_negative_is_hard_error():
    with pytest.raises(ExpressionError):
        evaluate(parse("sqrt(X)"), {"X": -1.0})


def test_fractional_power_of_negative_is_hard_error():
    with pytest.raises(ExpressionError):
        evaluate(parse("X^0.5"), {"X": -8.0})


def test_overflow_is_hard_error():
    with pytest.raises(ExpressionError):
        evaluate(parse("exp(X)"), {"X": 1e6})


@pytest.mark.parametrize(
    "source, offset",
    [
        ("2 +", 3),
        ("(1 + 2", 6),
        ("2 ** 3", 3),
        ("foo(1)", 0),
        ("min(1)", 0),
        ("sin(1, 2)", 0),
        ("1 $ 2", 2),
        ("", 0),
    ],
)
def test_syntax_errors_carry_byte_offsets(source, offset):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.offset == offset
    assert f"(byte {offset})" in str(err.value)


def test_unknown_function_message_names_it():
    with pytest.raises(ParseError, match="foo"):
        parse("foo(1)")


def test_wrong_arity_message():
    with pytest.raises(ParseError, match="arity|argument"):
        parse("pow(1)")


# round-trip property: printing then parsing reproduces the tree.
# Canonical trees spell negation with Neg, so the constant strategy
# wraps negative draws instead of building negative Const nodes.

_names = st.sampled_from(["X", "M", "Y", "P", "F", "S", "_v1"])
_consts = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).map(lambda v: Neg(Const(-v)) if math.copysign(1.0, v) < 0 else Const(v))


def _exprs(depth):
    if depth == 0:
        return st.one_of(_consts, _names.map(Var))
    sub = _exprs(depth - 1)
    return st.one_of(
        _consts,
        _names.map(Var),
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), sub).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max", "pow"]), sub, sub).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(4))
def test_round_trip_parse_print(expr):
    assert parse(to_source(expr)) == expr


@settings(max_examples=100, deadline=None)
@given(_exprs(3))
def test_printed_form_is_stable(expr):
    assert to_source(parse(to_source(expr))) == to_source(expr)


_rows = st.lists(
    st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=6, unique=True
)


@settings(max_examples=150, deadline=None)
@given(_exprs(3), _rows)
# numpy's power and libm's pow differ by one ulp at X=2.9999999999999996,
# which an evaluator built on math would report as a mismatch
@example(Call("pow", (Var("X"), Var("M"))), [(2.9999999999999996, 2.0), (1.5, -2.0)])
def test_batch_matches_scalar(expr, rows):
    # a batch of distinct rows gives each row exactly its one-row value
    envs = [{"X": x, "M": m} for x, m in rows]
    for env in envs:
        for name in free_variables(expr):
            env.setdefault(name, 1.0)
    columns = {name: np.array([env[name] for env in envs]) for name in envs[0]}
    try:
        expected = [evaluate(expr, env) for env in envs]
    except ExpressionError:
        with pytest.raises(ExpressionError):
            evaluate_batch(expr, columns, len(rows))
        return
    out = evaluate_batch(expr, columns, len(rows))
    assert out.shape == (len(rows),)
    assert out.tolist() == expected


def test_batch_raises_where_scalar_raises():
    expr = parse("log(X)")
    with pytest.raises(ExpressionError):
        evaluate_batch(expr, {"X": np.array([1.0, -1.0])}, 2)


def test_negative_const_nodes_reprint_with_correct_precedence():
    # a Const carrying a negative value is legal but non-canonical; its
    # printed form must still evaluate identically after a re-parse
    expr = BinOp("^", Const(-3.0), Const(2.0))
    assert evaluate(expr, {}) == 9.0
    assert evaluate(parse(to_source(expr)), {}) == 9.0


def test_const_rejects_non_finite():
    with pytest.raises(ExpressionError):
        Const(float("nan"))
    with pytest.raises(ExpressionError):
        Const(float("inf"))


def test_var_rejects_bad_identifier():
    with pytest.raises(ExpressionError):
        Var("2bad")
    with pytest.raises(ExpressionError):
        Var("")


# --- nesting depth -----------------------------------------------------------

# each shape, n levels deep
_NESTED = {
    "parentheses": lambda n: "(" * n + "X" + ")" * n,
    "sum": lambda n: "+".join(["X"] * (n + 1)),
    "product": lambda n: "*".join(["X"] * (n + 1)),
    "minuses": lambda n: "-" * n + "X",
    "powers": lambda n: "^".join(["X"] * (n + 1)),
    "calls": lambda n: "sin(" * n + "X" + ")" * n,
    "mixed": lambda n: "".join("(-"[i % 2] for i in range(n)) + "X" + ")" * ((n + 1) // 2),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_every_walk_succeeds_at_the_depth_limit(shape):
    tree = parse(_NESTED[shape](MAX_DEPTH))
    assert evaluate_batch(tree, {"X": np.array([0.5, 0.25])}, 2).shape == (2,)
    assert parse(to_source(tree)) == tree
    assert free_variables(tree) == {"X"}
    assert _level(tree) >= 1


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_one_level_past_the_depth_limit_is_a_parse_error(shape):
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse(_NESTED[shape](MAX_DEPTH + 1))

