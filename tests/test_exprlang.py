import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab.exprlang import (
    BinOp,
    Call,
    Const,
    EvalError,
    ExprSyntaxError,
    Neg,
    Num,
    UnboundVariableError,
    UnknownFunctionError,
    UnknownVariableError,
    Var,
    evaluate,
    parse,
    to_source,
    variables,
)

VARS = ("t", "s", "u")


def ev(source, **bindings):
    return evaluate(parse(source, VARS), bindings)


# ---------------------------------------------------------------------------
# precedence and fixtures


@pytest.mark.parametrize(
    "source,expected",
    [
        ("2+3*4", 14.0),
        ("2^3^2", 512.0),
        ("-2^2", -4.0),
        ("2^-2", 0.25),
        ("(2+3)*4", 20.0),
        ("2-3-4", -5.0),
        ("2-(3-4)", 3.0),
        ("6/3/2", 1.0),
        ("2*3^2", 18.0),
        ("pow(2,10)", 1024.0),
        ("abs(-3)", 3.0),
        ("sqrt(16)", 4.0),
        ("exp(0)", 1.0),
        ("log(e)", 1.0),
        ("cos(0)+sin(0)", 1.0),
        (".5+1e-3", 0.501),
        ("2.5E+2", 250.0),
        ("12.", 12.0),
        ("--3", 3.0),
    ],
)
def test_fixture_values(source, expected):
    assert ev(source) == pytest.approx(expected, rel=1e-15)


def test_constants():
    assert ev("pi") == math.pi
    assert ev("e") == math.e


def test_unary_minus_binds_looser_than_power():
    assert parse("-2^2", VARS) == Neg(BinOp("^", Num(2.0), Num(2.0)))


def test_power_right_associative():
    assert parse("2^3^2", VARS) == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))


def test_subtraction_left_associative():
    assert parse("2-3-4", VARS) == BinOp("-", BinOp("-", Num(2.0), Num(3.0)), Num(4.0))


def test_variables_bind():
    assert ev("t + 2*u", t=1.0, u=3.0) == 7.0
    assert ev("s", s=2.5) == 2.5


# ---------------------------------------------------------------------------
# parse errors carry positions


def test_unknown_variable_named_and_positioned():
    with pytest.raises(UnknownVariableError, match="unknown variable 'x'") as err:
        parse("t + x", {"t"})
    assert err.value.line == 1 and err.value.col == 5


def test_unknown_function_named():
    with pytest.raises(UnknownFunctionError, match="unknown function 'foo'"):
        parse("foo(1)", VARS)


def test_syntax_error_line_column():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 +\n* 2", VARS)
    assert err.value.line == 2 and err.value.col == 1


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError, match="trailing"):
        parse("2 3", VARS)


def test_arity_checked():
    with pytest.raises(ExprSyntaxError, match="1 argument"):
        parse("sin(1,2)", VARS)
    with pytest.raises(ExprSyntaxError, match="2 argument"):
        parse("pow(2)", VARS)


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError, match="unexpected character"):
        parse("2 @ 3", VARS)


def test_empty_input():
    with pytest.raises(ExprSyntaxError, match="expected a value"):
        parse("", VARS)


def test_missing_close_paren():
    with pytest.raises(ExprSyntaxError, match=r"expected '\)'"):
        parse("(1+2", VARS)


# ---------------------------------------------------------------------------
# evaluation domain rules


def test_unbound_variable():
    with pytest.raises(UnboundVariableError, match="'t' is not bound"):
        evaluate(parse("t", VARS), {})


@pytest.mark.parametrize(
    "source,bindings,fragment",
    [
        ("1/(t-t)", {"t": 1.0}, "division by zero"),
        ("log(0)", {}, "log of non-positive"),
        ("log(t-2)", {"t": 1.0}, "log of non-positive"),
        ("sqrt(t-2)", {"t": 1.0}, "sqrt of negative"),
        ("(t-2)^0.5", {"t": 1.0}, "fractional power of negative base"),
        ("pow(t-2, 0.5)", {"t": 1.0}, "fractional power of negative base"),
        ("(t-1)^-1", {"t": 1.0}, "zero raised to negative power"),
        ("exp(1000)", {}, "non-finite"),
    ],
)
def test_domain_errors(source, bindings, fragment):
    with pytest.raises(EvalError, match=fragment):
        evaluate(parse(source, VARS), bindings)


def test_eval_error_names_subexpression():
    with pytest.raises(EvalError, match=r"1\.0 / \(t - t\)"):
        ev("2 + 1/(t-t)", t=3.0)


def test_array_domain_check_catches_single_bad_element():
    expr = parse("log(t)", VARS)
    with pytest.raises(EvalError):
        evaluate(expr, {"t": np.array([1.0, 2.0, 0.0])})


def test_negative_base_integer_power_allowed():
    assert ev("(t-3)^2", t=1.0) == 4.0
    assert ev("pow(t-3, 3)", t=1.0) == -8.0


def test_vectorized_matches_scalar():
    expr = parse("sin(t)*u + exp(-t)*cos(u)", VARS)
    t = np.linspace(0.0, 2.0, 17)
    u = np.linspace(-1.0, 1.0, 17)
    vec = evaluate(expr, {"t": t, "u": u})
    scalar = np.array(
        [evaluate(expr, {"t": ti, "u": ui}) for ti, ui in zip(t, u)]
    )
    assert np.array_equal(vec, scalar)


def test_broadcasting_2d():
    expr = parse("t + 10*s", VARS)
    t = np.array([[1.0], [2.0]])
    s = np.array([[0.1, 0.2]])
    out = evaluate(expr, {"t": t, "s": s})
    assert out.shape == (2, 2)
    assert out[1, 0] == 3.0


@pytest.mark.parametrize(
    "source, names",
    [
        ("0.5*pi", set()),
        ("-t", {"t"}),
        ("exp(-s)*u + t^2", {"t", "s", "u"}),
        ("pow(s, 2) / (1 + u)", {"s", "u"}),
    ],
)
def test_variables(source, names):
    assert variables(parse(source, VARS)) == names


# ---------------------------------------------------------------------------
# pretty-printer round-trips (property-based)

_numbers = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_leaves = st.one_of(
    st.builds(Num, _numbers),
    st.builds(Var, st.sampled_from(VARS)),
    st.builds(Const, st.sampled_from(("pi", "e"))),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), children, children),
        st.builds(
            lambda f, a: Call(f, (a,)),
            st.sampled_from(("exp", "log", "sin", "cos", "sqrt", "abs")),
            children,
        ),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
    )


_asts = st.recursive(_leaves, _extend, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_asts)
def test_roundtrip_property(ast):
    assert parse(to_source(ast), VARS) == ast


@settings(max_examples=100, deadline=None)
@given(_asts)
def test_to_source_is_deterministic(ast):
    assert to_source(ast) == to_source(ast)


_safe_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=2.0, allow_nan=False)),
    st.builds(Var, st.sampled_from(VARS)),
)


def _safe_extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(list("+-*")), children, children),
        st.builds(
            lambda f, a: Call(f, (a,)),
            st.sampled_from(("sin", "cos", "abs")),
            children,
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_safe_leaves, _safe_extend, max_leaves=15))
def test_evaluation_pure_and_roundtrip_stable(ast):
    bindings = {"t": 0.7, "s": 1.3, "u": -0.4}
    first = evaluate(ast, bindings)
    second = evaluate(ast, bindings)
    assert first == second
    assert evaluate(parse(to_source(ast), VARS), bindings) == first
