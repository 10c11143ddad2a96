"""Exception types shared across the toolkit."""


class LyapsetError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(LyapsetError, ValueError):
    """Operands live in state spaces of different dimension."""


class ExprSyntaxError(LyapsetError, ValueError):
    """Expression text failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(LyapsetError, ArithmeticError):
    """Expression evaluation left the real domain (div by zero, sqrt of a
    negative, overflow, NaN)."""


class NondifferentiableError(LyapsetError, ValueError):
    """Symbolic differentiation hit abs/min/max on a live path."""


class EscapedDomainError(LyapsetError, RuntimeError):
    """The integrated state left the blow-up ball of the configured domain."""

    def __init__(self, time: float, state):
        super().__init__(f"escaped domain at t={time:.6g}")
        self.time = time
        self.state = state


class StepLimitError(LyapsetError, RuntimeError):
    """Integrator exceeded its step budget."""


class OrbitUnboundedError(LyapsetError, RuntimeError):
    """Orbit unbounded within horizon; no compact forward closure observed."""


class ProblemFormatError(LyapsetError, ValueError):
    """Problem-definition file violates the expected schema."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer, self.message = pointer, message
