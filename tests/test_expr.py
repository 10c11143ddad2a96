import math

import pytest
from hypothesis import example, given, settings, strategies as st

from lyapset.errors import (
    DimensionMismatchError,
    EvalDomainError,
    ExprSyntaxError,
    NondifferentiableError,
)
from lyapset.expr import (
    MAX_DEPTH,
    Binary,
    Const,
    Nary,
    ScalarFieldSpec,
    Unary,
    Var,
    VectorFieldSpec,
    compile_gradient,
    compile_scalar,
    compile_vector_field,
    differentiate,
    eval_expr,
    eval_field,
    gradient,
    neg,
    parse,
    print_expr,
)
from lyapset.flow import IntegratorConfig, integrate_lanes

from conftest import native


class TestParse:
    def test_sum_of_squares(self):
        e = parse("x1*x1 + x2*x2", 2)
        assert eval_expr(e, [3.0, 4.0]) == 25.0

    def test_unary_minus_precedence(self):
        e = parse("-x1^2", 1)
        assert eval_expr(e, [2.0]) == -4.0

    def test_variable_beyond_dimension(self):
        with pytest.raises(ExprSyntaxError):
            parse("x3", 2)

    def test_power_right_assoc_rejected_without_const_exponent(self):
        # x1^2^3 would need the exponent subtree 2^3, which is not a
        # constant node; the grammar demands a literal exponent.
        with pytest.raises(ExprSyntaxError):
            parse("x1^2^3", 1)

    def test_negative_literal_exponent(self):
        e = parse("x1^-2", 1)
        assert eval_expr(e, [2.0]) == pytest.approx(0.25)

    def test_left_associativity(self):
        assert eval_expr(parse("8-4-2", 1), [0.0]) == 2.0
        assert eval_expr(parse("8/4/2", 1), [0.0]) == 1.0

    def test_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse("x1 + * 2", 1)
        assert exc_info.value.position == 5

    @pytest.mark.parametrize("text,message,position", [
        ("x1 $ 2", "unexpected character '$'", 3),
        ("(x1 + 2", "expected ')'", 7),
        ("sin(x1", "expected ')'", 6),
        ("", "empty expression", 0),
        ("   ", "empty expression", 3),
        ("x1 2", "unexpected token '2'", 3),
        ("x1 + x0", "variable index must be >= 1: x0", 5),
    ])
    def test_syntax_error_and_its_position(self, text, message, position):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse(text, 1)
        assert exc_info.value.position == position
        assert str(exc_info.value) == f"{message} (at position {position})"

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1") as exc_info:
            parse("1", 0)
        assert exc_info.type is ValueError  # not a syntax error: no position

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError):
            parse("y1 + 1", 2)

    def test_wrong_arity(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(x1, x2)", 2)
        with pytest.raises(ExprSyntaxError):
            parse("min(x1)", 2)

    def test_nary_min_max(self):
        assert eval_expr(parse("min(x1, x2, 3)", 2), [7.0, -1.0]) == -1.0
        assert eval_expr(parse("max(x1, 0)", 1), [-5.0]) == 0.0


class TestEval:
    def test_exp_zero(self):
        assert eval_expr(parse("exp(0)", 1), [5.0]) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse("1/x1", 1), [0.0])

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse("sqrt(x1)", 1), [-1.0])

    def test_overflow(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse("exp(exp(x1))", 1), [10.0])

    def test_point_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            eval_expr(parse("x2", 2), [1.0])


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("x1^2", 1), 1)
        assert eval_expr(d, [3.0]) == 6.0

    def test_product_and_chain(self):
        d = differentiate(parse("x1*x2 + sin(x1)", 2), 1)
        assert eval_expr(d, [0.0, 2.0]) == 3.0

    def test_abs_nondifferentiable(self):
        with pytest.raises(NondifferentiableError):
            differentiate(parse("abs(x1)", 1), 1)

    def test_abs_of_other_variable_is_fine(self):
        d = differentiate(parse("abs(x2) + x1", 2), 1)
        assert eval_expr(d, [1.0, -3.0]) == 1.0

    def test_min_nondifferentiable(self):
        with pytest.raises(NondifferentiableError):
            differentiate(parse("min(x1, 2)", 1), 1)


class TestGradient:
    def test_sum_of_squares(self):
        s = ScalarFieldSpec.from_string("x1^2 + x2^2", 2)
        assert gradient(s, [1.0, 2.0]) == [2.0, 4.0]

    def test_saddle_at_origin(self):
        s = ScalarFieldSpec.from_string("x1*x2", 2)
        assert gradient(s, [0.0, 0.0]) == [0.0, 0.0]

    def test_exp_cos(self):
        s = ScalarFieldSpec.from_string("exp(x1)*cos(x2)", 2)
        g = gradient(s, [0.0, 0.0])
        assert g[0] == pytest.approx(1.0, abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-12)


class TestFieldSpecs:
    def test_vector_field_dimension_from_count(self):
        V = VectorFieldSpec.from_strings(["x2", "-x1"])
        assert V.dim == 2

    def test_component_variable_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            VectorFieldSpec.from_strings(["x2"])

    def test_label_round_trips(self):
        V = VectorFieldSpec.from_strings(["x2", "-x1 + x2^2"])
        again = VectorFieldSpec.from_strings(
            [print_expr(c) for c in V.components]
        )
        assert again == V


def deep_text(shape: str, depth: int) -> str:
    """Expression text of the given shape whose tree is depth levels deep;
    for "parentheses", one leaf inside depth pairs of them."""
    return {
        "calls": "sin(" * (depth - 1) + "x1" + ")" * (depth - 1),
        "sum": "+".join(["x1"] * depth),  # a left-leaning tree
        # The derivative of nested quotients is about three times as deep.
        "quotients": "x1/(" * (depth - 2) + "x1/x1" + ")" * (depth - 2),
        "signs": "-" * (depth - 1) + "x1",
        "parentheses": "(" * depth + "x1" + ")" * depth,
    }[shape]


_DEEP_SHAPES = ["calls", "sum", "quotients", "signs", "parentheses"]


class TestDepthBound:
    @pytest.mark.parametrize("shape", _DEEP_SHAPES)
    def test_deepest_accepted_goes_through_every_walk(self, shape):
        e = parse(deep_text(shape, MAX_DEPTH), 1)
        assert parse(print_expr(e), 1) == e
        assert math.isfinite(eval_expr(e, [0.7]))
        s = ScalarFieldSpec(e, 1)
        assert compile_gradient(s)([0.7]) == gradient(s, [0.7])
        V = VectorFieldSpec((e,), 1)
        cfg = IntegratorConfig(max_steps=20)
        runs = []
        for on in (False, True):  # the orbit loop, then the native loop
            samples = {}

            def visit(rows, j, states):
                samples.update(zip(zip(rows.tolist(), j.tolist()), states.tolist()))

            with native(on):
                errors = integrate_lanes(V, [[0.7], [-0.3]], [0.01, 0.02], cfg, visit)
            runs.append((samples, {row: str(error) for row, error in errors.items()}))
        assert runs[0] == runs[1] and len(runs[0][0]) + len(runs[0][1]) >= 2

    @pytest.mark.parametrize("shape", _DEEP_SHAPES)
    def test_one_level_deeper_fails(self, shape):
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(deep_text(shape, MAX_DEPTH + 1), 1)

    @pytest.mark.parametrize("text", ["(" * 5000 + "x1" + ")" * 5000, "-" * 20000 + "x1",
                                      "x1" + "^2" * 3000, "+".join(["x1"] * 20000)])
    def test_far_deeper_fails_without_recursion_error(self, text):
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(text, 1)


# ---------------------------------------------------------------------------
# randomized structural properties

_SMOOTH_UNARY = ("sin", "cos", "exp", "tanh")


def smooth_exprs(n_vars: int):
    """Hypothesis strategy for differentiable ASTs (no abs/min/max/sqrt)."""
    leaves = st.one_of(
        st.integers(1, n_vars).map(Var),
        st.floats(-2, 2, allow_nan=False).map(lambda c: Const(float(c))),
    )

    def extend(children):
        unary = st.builds(
            Unary, st.sampled_from(_SMOOTH_UNARY), children
        )
        binary = st.builds(
            Binary,
            st.sampled_from(("add", "sub", "mul")),
            children,
            children,
        )
        power = st.builds(
            lambda b, c: Binary("pow", b, Const(float(c))),
            children,
            st.integers(2, 3),
        )
        return st.one_of(unary, binary, power)

    return st.recursive(leaves, extend, max_leaves=12)


def any_exprs(n_vars: int):
    """Strategy that may include the nondifferentiable node kinds."""
    leaves = st.one_of(
        st.integers(1, n_vars).map(Var),
        st.floats(-4, 4, allow_nan=False).map(lambda c: Const(float(c))),
    )

    def extend(children):
        # neg goes through the folding constructor so generated trees stay
        # inside the parser's image (parse never yields neg of a constant)
        return st.one_of(
            children.map(neg),
            st.builds(
                Unary,
                st.sampled_from(("sin", "cos", "exp", "sqrt", "abs", "tanh")),
                children,
            ),
            st.builds(
                Binary,
                st.sampled_from(("add", "sub", "mul", "div")),
                children,
                children,
            ),
            st.builds(
                lambda b, c: Binary("pow", b, Const(float(c))),
                children,
                st.integers(-3, 3),
            ),
            st.builds(lambda a, b: Nary("min", (a, b)), children, children),
            st.builds(lambda a, b: Nary("max", (a, b)), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


class TestPrintParseRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(any_exprs(3))
    @example(Const(-0.0))
    @example(Binary("sub", Var(1), Const(-0.0)))
    def test_parse_of_print_is_identity(self, e):
        assert parse(print_expr(e), 3) == e

    @settings(max_examples=100, deadline=None)
    @given(any_exprs(2))
    def test_print_parse_print_fixed_point(self, e):
        text = print_expr(e)
        assert print_expr(parse(text, 2)) == text


# Texts a compiled closure may raise EvalDomainError with: its own
# finiteness guards, then Python's math exceptions passed through.
_COMPILED_DOMAIN_MESSAGES = {
    "non-finite intermediate value",
    "non-finite result",
    "math domain error",
    "math range error",
    "float division by zero",
}


def _bits(values):
    return [float(v).hex() for v in values]


_HUGE = Binary("mul", Binary("mul", Var(1), Const(1e300)), Const(1e300))
_SQUARE = Binary("pow", Var(1), Const(2.0))
# A base whose square glibc 2.36's pow rounds one ULP above x * x.
_POW_MISROUNDS = 2.817595433862767


class TestInterpretedVsCompiled:
    @settings(max_examples=100, deadline=None)
    @given(any_exprs(2), st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=2))
    # One input per message the compiled closures can raise.
    @example(Unary("tanh", _HUGE), [1.0, 0.0])
    @example(_HUGE, [1.0, 0.0])
    @example(Unary("sqrt", Var(1)), [-1.0, 0.0])
    @example(Binary("div", Const(1.0), Var(2)), [1.0, 0.0])
    @example(Unary("exp", Binary("mul", Var(1), Const(1000.0))), [1.0, 0.0])
    # Squares, which every evaluator takes as a product, and their overflow.
    @example(_SQUARE, [_POW_MISROUNDS, 0.0])
    @example(Binary("pow", Var(1), Const(3.0)), [_POW_MISROUNDS, 0.0])
    @example(_SQUARE, [1e200, 0.0])
    @example(Unary("exp", neg(_SQUARE)), [1e200, 0.0])
    # exp(-inf) is 0.0, so exp's operand is checked as tanh's is.
    @example(Unary("exp", neg(Binary("mul", Var(1), Var(1)))), [1e200, 0.0])
    def test_bitwise_agreement(self, e, x):
        V = VectorFieldSpec((e, e), 2)
        scalar = compile_scalar(e)
        pairs = [
            (lambda p: [eval_expr(e, p)], lambda p: [scalar(p)]),
            (lambda p: eval_field(V, p), compile_vector_field(V)),
        ]
        s = ScalarFieldSpec(e, 2)
        try:
            pairs.append((lambda p: gradient(s, p), compile_gradient(s)))
        except NondifferentiableError:
            pass
        for reference, compiled in pairs:
            try:
                expected = reference(x)
            except EvalDomainError:
                with pytest.raises(EvalDomainError) as exc_info:
                    compiled(list(x))
                assert str(exc_info.value) in _COMPILED_DOMAIN_MESSAGES
                continue
            assert _bits(compiled(list(x))) == _bits(expected)

    def test_square_is_the_product(self):
        x = [_POW_MISROUNDS, 0.0]
        square = x[0] * x[0]
        V = VectorFieldSpec((_SQUARE, Var(2)), 2)
        cube = ScalarFieldSpec(Binary("pow", Var(1), Const(3.0)), 2)
        assert _bits([eval_expr(_SQUARE, x), compile_scalar(_SQUARE)(x)]) == _bits([square] * 2)
        assert _bits(compile_vector_field(V)(x)) == _bits([square, 0.0])
        assert _bits(compile_gradient(cube)(x)) == _bits([3.0 * square, 0.0])

    @pytest.mark.parametrize("e", [_SQUARE, Unary("exp", neg(_SQUARE))])
    def test_square_overflow_fails(self, e):
        """x1^2 overflows at 1e200, where exp(-(x1^2)) must not become 0."""
        for evaluate in (lambda x: eval_expr(e, x), compile_scalar(e)):
            with pytest.raises(EvalDomainError):
                evaluate([1e200])


class TestGradientVsFiniteDifferences:
    @settings(max_examples=100, deadline=None)
    @given(
        smooth_exprs(2),
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=2),
    )
    def test_symbolic_matches_central(self, e, x):
        try:
            value = eval_expr(e, x)
        except EvalDomainError:
            return
        if abs(value) > 1e8:
            return  # cancellation guard
        for i in (1, 2):
            try:
                sym = eval_expr(differentiate(e, i), x)
            except EvalDomainError:
                return
            h = 1e-6 * max(1.0, abs(x[i - 1]))
            xp, xm = list(x), list(x)
            xp[i - 1] += h
            xm[i - 1] -= h
            try:
                fd = (eval_expr(e, xp) - eval_expr(e, xm)) / (2 * h)
            except EvalDomainError:
                return
            assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym), abs(fd))


class TestDeterminism:
    def test_eval_is_pure(self):
        e = parse("sin(x1)*exp(x2) - x1/x2", 2)
        first = eval_expr(e, [0.7, 1.3])
        for _ in range(5):
            assert eval_expr(e, [0.7, 1.3]) == first
