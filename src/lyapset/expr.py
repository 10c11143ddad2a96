"""Expression language for vector fields and scalar candidate functions.

Grammar: numbers, variables x1..xn, + - * / ^ with standard precedence
(^ above unary minus above * / above + -), parentheses, and calls to
sin cos exp sqrt abs tanh (one argument) and min max (two or more).
Exponents of ^ must be constants. ASTs are immutable; evaluation either
returns a finite double or raises, never a silent NaN/Inf.

Two evaluators are kept deliberately: a recursive reference evaluator
that checks finiteness at every node, and a code generator that emits
straight-line Python for hot loops, one temporary per operation node.
The generator builds the standalone closures here and the integrator's
per-field step in flow.py. Both evaluators use the same primitive
operations (math.pow and friends, and a * a for a^2), so values agree
bitwise wherever both succeed.

The generator also writes C, for the integrator's native loop: the same
operations in the same order, libm's functions, min and max as the
builtins' comparisons, and a jump to the label failed where the Python
code raises.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    EscapedDomainError,
    EvalDomainError,
    ExprSyntaxError,
    NondifferentiableError,
    StepLimitError,
)

_FUNCTIONS = {"sin", "cos", "exp", "sqrt", "abs", "tanh", "min", "max"}


@dataclass(frozen=True, slots=True)
class Const:
    value: float

    # 0.0 and -0.0 are equal floats but give different results, so the
    # compiled-code caches must tell them apart.
    def _key(self):
        return self.value, math.copysign(1.0, self.value)

    def __eq__(self, other):
        if not isinstance(other, Const):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, slots=True)
class Var:
    index: int  # 1-based, x1..xn


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Nary:
    op: str
    args: tuple["Expr", ...]


Expr = Const | Var | Unary | Binary | Nary


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)
_VAR_RE = re.compile(r"^x(\d+)$")

# The deepest expression tree parse accepts, and the deepest nesting of
# parentheses, calls, signs and exponents in its text. A walk over a tree
# recurses once or twice per level, a derivative is up to three times as
# deep as its expression, and the parser recurses up to seven times per
# nesting level: at this depth each needs at most about 710 frames, within
# Python's default recursion limit of 1000.
MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.depth = 0

    def nested(self, rule) -> Expr:
        """rule() one level of nesting deeper, failing past MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise ExprSyntaxError(message, self.peek()[2])
        e = rule()
        self.depth -= 1
        return e

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def parse(self) -> Expr:
        kind, _, pos = self.peek()
        if kind == "end":
            raise ExprSyntaxError("empty expression", pos)
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        if _depth(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels", 0)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            right = self.term()
            left = Binary("add" if op == "+" else "sub", left, right)
        return left

    def term(self) -> Expr:
        left = self.unary()
        while self.at_op("*", "/"):
            _, op, _ = self.advance()
            right = self.unary()
            left = Binary("mul" if op == "*" else "div", left, right)
        return left

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return neg(self.nested(self.unary))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            _, _, pos = self.advance()
            exponent = self.nested(self.unary)
            if not isinstance(exponent, Const):
                raise ExprSyntaxError("exponent of ^ must be a constant", pos)
            return Binary("pow", base, exponent)
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            e = self.nested(self.expr)
            self.expect_op(")")
            return e
        if kind == "ident":
            m = _VAR_RE.match(val)
            if m:
                index = int(m.group(1))
                if index < 1:
                    raise ExprSyntaxError(f"variable index must be >= 1: {val}", pos)
                if index > self.n:
                    raise ExprSyntaxError(
                        f"variable index {index} exceeds dimension {self.n}", pos
                    )
                return Var(index)
            if val in _FUNCTIONS:
                return self.call(val, pos)
            raise ExprSyntaxError(f"unknown identifier {val!r}", pos)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)

    def call(self, name: str, pos: int) -> Expr:
        self.expect_op("(")
        args = [self.nested(self.expr)]
        while self.at_op(","):
            self.advance()
            args.append(self.nested(self.expr))
        self.expect_op(")")
        if name in ("min", "max"):
            if len(args) < 2:
                raise ExprSyntaxError(f"{name} needs at least 2 arguments", pos)
            return Nary(name, tuple(args))
        if len(args) != 1:
            raise ExprSyntaxError(f"{name} takes exactly 1 argument", pos)
        return Unary(name, args[0])


def _children(e: Expr) -> tuple:
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return e.left, e.right
    return e.args if isinstance(e, Nary) else ()


def _depth(e: Expr) -> int:
    """The number of levels of the tree e, counted without recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [child for node in level for child in _children(node)]
    return depth


def parse(text: str, n: int) -> Expr:
    """Parse an expression over variables x1..xn, at most MAX_DEPTH deep."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _PREC_NEG if math.copysign(1.0, e.value) < 0 else _PREC_ATOM
    if isinstance(e, (Var, Nary)):
        return _PREC_ATOM
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    return {"add": _PREC_ADD, "sub": _PREC_ADD, "mul": _PREC_MUL,
            "div": _PREC_MUL, "pow": _PREC_POW}[e.op]


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return "-0" if math.copysign(1.0, v) < 0 and v == 0 else str(int(v))
    return repr(v)


def _wrap(child: Expr, parent_prec: int, strict: bool) -> str:
    text = print_expr(child)
    cp = _prec(child)
    if cp < parent_prec or (strict and cp == parent_prec):
        return f"({text})"
    return text


def print_expr(e: Expr) -> str:
    """Render an AST back to parseable text; parse(print_expr(e)) == e."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.arg, _PREC_NEG, strict=False)
        return f"{e.op}({print_expr(e.arg)})"
    if isinstance(e, Nary):
        return f"{e.op}({','.join(print_expr(a) for a in e.args)})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[e.op]
    if e.op == "pow":
        return _wrap(e.left, _PREC_POW, strict=True) + sym + _wrap(e.right, _PREC_POW, False)
    prec = _prec(e)
    return _wrap(e.left, prec, strict=False) + sym + _wrap(e.right, prec, strict=True)


# ---------------------------------------------------------------------------
# evaluation

_UNARY_FN = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}


def eval_expr(e: Expr, x) -> float:
    """Reference evaluator; raises EvalDomainError on any non-finite value."""
    try:
        v = _eval(e, x)
    except DimensionMismatchError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalDomainError(str(exc)) from exc
    return v


def _eval(e: Expr, x) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index > len(x):
            raise DimensionMismatchError(
                f"expression uses x{e.index} but the point has {len(x)} coordinates"
            )
        return float(x[e.index - 1])
    if isinstance(e, Unary):
        a = _eval(e.arg, x)
        v = -a if e.op == "neg" else _UNARY_FN[e.op](a)
    elif isinstance(e, Nary):
        vals = [_eval(a, x) for a in e.args]
        v = min(vals) if e.op == "min" else max(vals)
    else:
        a = _eval(e.left, x)
        b = _eval(e.right, x)
        if e.op == "add":
            v = a + b
        elif e.op == "sub":
            v = a - b
        elif e.op == "mul":
            v = a * b
        elif e.op == "div":
            v = a / b
        elif b == 2.0:
            v = a * a  # the correctly rounded square, as every evaluator has it
        else:
            v = math.pow(a, b)
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite value from {e.op}")
    return v


# ---------------------------------------------------------------------------
# code generation
#
# One straight-line emitter serves every compiled form: each operation node
# becomes one temporary, in the post-order a nested Python expression would
# evaluate, and the finiteness guards become inline comparisons. Leaves stay
# inline operands.

_INTERMEDIATE = "non-finite intermediate value"
_RESULT = "non-finite result"

# Globals of generated code: pow is math.pow, while abs, min and max stay
# the builtins. The integrator's orbit loops raise the two flow errors.
_NAMESPACE = {
    name: getattr(math, name) for name in ("sin", "cos", "exp", "sqrt", "tanh", "pow", "inf")
}
_NAMESPACE.update(EvalDomainError=EvalDomainError, EscapedDomainError=EscapedDomainError,
                  StepLimitError=StepLimitError)
_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


# Where an operation does not raise in Python, as C conditions over its
# operands a, b and its value t; where one fails, the attempt ends: the
# row's loop stops before it and the orbit loop resumes it there. sqrt
# raises below zero but not on NaN (a != a), sin and cos on infinities, a
# division on a zero divisor, exp and pow when finite operands give a
# non-finite value.
_C_OK_BEFORE = {
    "sqrt": "{a} >= 0.0 || {a} != {a}",
    "sin": "!isinf({a})",
    "cos": "!isinf({a})",
    "div": "{b} != 0.0",
}
_C_OK_AFTER = {
    "exp": "isfinite({t})",  # its operand is checked before
    "pow": "isfinite({t}) || !isfinite({b})",
}
_C_FAIL = "goto failed;"


def _guard(code: list[str], e: Expr, operand: str, message: str, target: str) -> None:
    """Append a finiteness check of operand, the value of node e."""
    if isinstance(e, Const) and math.isfinite(e.value):
        return
    if target == "c":
        code.append(f"if (!isfinite({operand})) {_C_FAIL}")
    else:
        code.append(f"if not -inf < {operand} < inf: raise EvalDomainError({message!r})")


def _assign(name: str, text: str, target: str) -> str:
    """The statement that sets the new temporary name to text."""
    return f"double {name} = {text};" if target == "c" else f"{name} = {text}"


def _emit(e: Expr, xs, code: list[str], target: str = "python") -> str:
    """Append the statements computing e to code; return its operand text.

    xs[i] is the operand text of x_{i+1}. target is "python" or "c"; in
    C, the code jumps to the label failed where the Python code raises.
    """
    c = target == "c"
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return xs[e.index - 1]
    a = b = None
    if isinstance(e, Unary):
        a = _emit(e.arg, xs, code, target)
        if e.op in ("tanh", "exp"):
            # tanh maps Inf to 1.0 and exp maps -Inf to 0.0, so their
            # operand must be checked.
            _guard(code, e.arg, a, _INTERMEDIATE, target)
        if e.op == "neg":
            text = f"-({a})" if c else f"-{a}"
        else:
            text = f"{'fabs' if c and e.op == 'abs' else e.op}({a})"
    elif isinstance(e, Nary):
        args = []
        for arg in e.args:
            args.append(_emit(arg, xs, code, target))
            _guard(code, arg, args[-1], _INTERMEDIATE, target)
        if c:  # the builtins' left fold, one comparison at a time
            text = args[0]
            for arg in args[1:]:
                text = f"{e.op}2({text}, {arg})"
        else:
            text = f"{e.op}({', '.join(args)})"
    elif e.op == "pow" and _is_const(e.right, 2.0):
        # The square is a product: a non-finite base gives a non-finite
        # product, so one guard after it stands for the base check and for
        # the OverflowError of math.pow.
        a = _emit(e.left, xs, code, target)
        name = f"t{len(code)}"
        code.append(_assign(name, f"{a} * {a}", target))
        _guard(code, e, name, _INTERMEDIATE, target)
        return name
    else:
        a = _emit(e.left, xs, code, target)
        if e.op == "pow":
            # pow maps Inf^0 to 1.0 and Inf^-1 to 0.0; check the base.
            _guard(code, e.left, a, _INTERMEDIATE, target)
        b = _emit(e.right, xs, code, target)
        if e.op == "div":
            # x/Inf is 0.0; check the divisor.
            _guard(code, e.right, b, _INTERMEDIATE, target)
        text = f"pow({a}, {b})" if e.op == "pow" else f"{a} {_SYMBOLS[e.op]} {b}"
    name = f"t{len(code)}"
    if c and e.op in _C_OK_BEFORE:
        code.append(f"if (!({_C_OK_BEFORE[e.op].format(a=a, b=b)})) {_C_FAIL}")
    code.append(_assign(name, text, target))
    if c and e.op in _C_OK_AFTER:
        ok = _C_OK_AFTER[e.op]
        if e.op == "pow" and isinstance(e.right, Const) and math.isfinite(e.right.value):
            ok = "isfinite({t})"  # the usual exponent, a finite constant
        code.append(f"if (!({ok.format(a=a, b=b, t=name)})) {_C_FAIL}")
    return name


def _emit_results(exprs, xs, code: list[str], target: str = "python") -> list[str]:
    """Emit each expression as a checked result; return the plain names that
    hold the results (an x[i] or literal result gets a temporary)."""
    names = []
    for e in exprs:
        v = _emit(e, xs, code, target)
        if not v.isidentifier():  # x[i] or a literal
            name = f"t{len(code)}"
            code.append(_assign(name, v, target))
            v = name
        _guard(code, e, v, _RESULT, target)
        names.append(v)
    return names


def _define(name: str, params: str, code: list[str], returns: str, doc: str,
            attempts: str | None = None, scope: dict | None = None):
    """Exec generated code as one function that maps Python's math
    exceptions to EvalDomainError. Given attempts, a count in the code
    that starts at 0, the lyapset errors the function raises carry its
    value as `attempts`. scope adds globals of the code to _NAMESPACE."""
    body = ["try:", *("    " + line for line in code + [f"return {returns}"]),
            "except (ValueError, ZeroDivisionError, OverflowError) as exc:",
            "    raise EvalDomainError(str(exc)) from exc"]
    if attempts:
        body = [f"{attempts} = 0", "try:", *("    " + line for line in body),
                "except (EvalDomainError, EscapedDomainError, StepLimitError) as exc:",
                f"    exc.attempts = {attempts}",
                "    raise"]
    src = "\n".join([f"def {name}({params}):", *("    " + line for line in body)])
    scope = {**_NAMESPACE, **(scope or {})}
    exec(src, scope)  # source is generated solely from validated ASTs
    fn = scope[name]
    fn.__doc__ = doc
    return fn


def _emit_closure(exprs) -> tuple[list[str], list[str]]:
    """Code and result names for exprs read from x[0], x[1], ... by index,
    so a short input fails exactly where a variable is first read."""
    code: list[str] = []
    xs = [f"x[{i}]" for i in range(max(map(max_var_index, exprs)))]
    return code, _emit_results(exprs, xs, code)


def compile_scalar(e: Expr):
    """Compile to a closure mapping a coordinate sequence to a float."""
    code, (name,) = _emit_closure([e])
    return _define("_compiled", "x", code, name, "compiled scalar expression")


# ---------------------------------------------------------------------------
# differentiation

def contains_var(e: Expr, i: int) -> bool:
    if isinstance(e, Const):
        return False
    if isinstance(e, Var):
        return e.index == i
    if isinstance(e, Unary):
        return contains_var(e.arg, i)
    if isinstance(e, Nary):
        return any(contains_var(a, i) for a in e.args)
    return contains_var(e.left, i) or contains_var(e.right, i)


def max_var_index(e: Expr) -> int:
    if isinstance(e, Const):
        return 0
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return max_var_index(e.arg)
    if isinstance(e, Nary):
        return max(max_var_index(a) for a in e.args)
    return max(max_var_index(e.left), max_var_index(e.right))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Unary("neg", a)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("sub", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    return Binary("div", a, b)


def _pow(a: Expr, c: float) -> Expr:
    if c == 0.0:
        return Const(1.0)
    if c == 1.0:
        return a
    return Binary("pow", a, Const(c))


def differentiate(e: Expr, i: int) -> Expr:
    """Exact symbolic partial derivative with respect to x_i."""
    if i < 1:
        raise ValueError("variable index must be >= 1")
    if not contains_var(e, i):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Unary):
        du = differentiate(e.arg, i)
        if e.op == "neg":
            return neg(du)
        if e.op == "sin":
            return _mul(Unary("cos", e.arg), du)
        if e.op == "cos":
            return neg(_mul(Unary("sin", e.arg), du))
        if e.op == "exp":
            return _mul(Unary("exp", e.arg), du)
        if e.op == "sqrt":
            return _div(du, _mul(Const(2.0), Unary("sqrt", e.arg)))
        if e.op == "tanh":
            slope = _sub(Const(1.0), _pow(Unary("tanh", e.arg), 2.0))
            return _mul(slope, du)
        raise NondifferentiableError(f"{e.op} is not differentiable in x{i}")
    if isinstance(e, Nary):
        raise NondifferentiableError(f"{e.op} is not differentiable in x{i}")
    if e.op == "add":
        return _add(differentiate(e.left, i), differentiate(e.right, i))
    if e.op == "sub":
        return _sub(differentiate(e.left, i), differentiate(e.right, i))
    if e.op == "mul":
        return _add(
            _mul(differentiate(e.left, i), e.right),
            _mul(e.left, differentiate(e.right, i)),
        )
    if e.op == "div":
        num = _sub(
            _mul(differentiate(e.left, i), e.right),
            _mul(e.left, differentiate(e.right, i)),
        )
        return _div(num, _pow(e.right, 2.0))
    # pow with constant exponent c: c * base^(c-1) * base'
    c = e.right.value
    return _mul(
        _mul(Const(c), _pow(e.left, c - 1.0)),
        differentiate(e.left, i),
    )


# ---------------------------------------------------------------------------
# field specifications

@dataclass(frozen=True)
class VectorFieldSpec:
    """Right-hand side of an autonomous system, one expression per coordinate."""

    components: tuple[Expr, ...]
    dim: int

    def __post_init__(self):
        if self.dim < 1 or len(self.components) != self.dim:
            raise DimensionMismatchError(
                f"{len(self.components)} components for dimension {self.dim}"
            )
        for c in self.components:
            if max_var_index(c) > self.dim:
                raise DimensionMismatchError(
                    f"component {print_expr(c)!r} uses a variable beyond x{self.dim}"
                )

    @classmethod
    def from_strings(cls, texts) -> "VectorFieldSpec":
        n = len(texts)
        return cls(tuple(parse(t, n) for t in texts), n)

    def label(self) -> str:
        return "[" + ", ".join(print_expr(c) for c in self.components) + "]"

    def negated(self) -> "VectorFieldSpec":
        return VectorFieldSpec(tuple(neg(c) for c in self.components), self.dim)


@dataclass(frozen=True)
class ScalarFieldSpec:
    """Scalar function of the state, the carrier for candidate functions."""

    body: Expr
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        if max_var_index(self.body) > self.dim:
            raise DimensionMismatchError(
                f"{print_expr(self.body)!r} uses a variable beyond x{self.dim}"
            )

    @classmethod
    def from_string(cls, text: str, n: int) -> "ScalarFieldSpec":
        return cls(parse(text, n), n)


def compile_vector_field(V: VectorFieldSpec):
    """Compile to a closure mapping a coordinate sequence to a list of floats."""
    code, names = _emit_closure(V.components)
    doc = f"compiled field {V.label()}"
    return _define("_compiled", "x", code, f"[{', '.join(names)}]", doc)


def compile_gradient(s: ScalarFieldSpec):
    """Compile the symbolic gradient to a closure returning a list of floats."""
    parts = [differentiate(s.body, i) for i in range(1, s.dim + 1)]
    code, names = _emit_closure(parts)
    return _define("_compiled", "x", code, f"[{', '.join(names)}]", "compiled gradient")


def eval_field(V: VectorFieldSpec, x) -> list[float]:
    if len(x) != V.dim:
        raise DimensionMismatchError(f"point has {len(x)} coordinates, field needs {V.dim}")
    return [eval_expr(c, x) for c in V.components]


def gradient(s: ScalarFieldSpec, x):
    """Symbolic gradient evaluated at a point, as a plain list of floats."""
    if len(x) != s.dim:
        raise DimensionMismatchError(f"point has {len(x)} coordinates, function needs {s.dim}")
    return [eval_expr(differentiate(s.body, i), x) for i in range(1, s.dim + 1)]
