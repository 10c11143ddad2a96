"""Problem-definition files: parsing, validation, and canonical serialization.

A problem is one JSON object naming the vector field, the compact set,
the integrator, a seed, and optional analysis blocks. Validation is
strict: unknown keys and type mismatches are reported with JSON-pointer
paths so a typo in a knob name cannot silently disable a block.

Every number must be finite: Infinity, NaN, 1e999 and integers beyond
the float range are rejected where they stand. The integrator and each
block are one `_SECTIONS` entry: each key's parser, bound and default,
and the rules tying keys together (out_dt at most the horizon or window,
and at most flow.MAX_SAMPLES samples in it; an even interval count for
Simpson). The code that enforces a rule in the analysis checks it at
load, so a file that breaks one fails with a pointer, not partway
through a run. The integer keys a block makes its starts from give at
most MAX_STARTS starts, counted from the integers alone.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass

from .errors import DimensionMismatchError, ExprSyntaxError, ProblemFormatError
from .expr import VectorFieldSpec, parse as parse_expr
from .flow import IntegratorConfig, check_sampling
from .geometry import Box, ClosedBall, CompactSet, PointCloud, SinglePoint
from .lyapunov import _QUADRATURES, ConverseConfig

_METHOD_ALIASES = {
    "rk45": "rk45_adaptive",
    "rk45_adaptive": "rk45_adaptive",
    "rk4": "rk4_fixed",
    "rk4_fixed": "rk4_fixed",
}

# The most starts one block may make: grid nodes, the points of one delta
# probe, converse orbits or certificate samples.
MAX_STARTS = 10**6

_REQUIRED = object()  # table default: the key must be present
_OPTIONAL = object()  # table default: an absent key stays absent


def _fail(pointer: str, message: str):
    raise ProblemFormatError(pointer, message)


def _expect_object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        _fail(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed, pointer: str):
    for key in obj:
        if key not in allowed:
            _fail(f"{pointer}/{key}", "unknown key")


def _real(v, pointer: str, positive=False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(pointer, f"expected a number, got {type(v).__name__}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(pointer, "must be a finite number")
    if positive and not v > 0:
        _fail(pointer, "must be > 0")
    return v


def _integer(v, pointer: str, minimum: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(pointer, f"expected an integer, got {type(v).__name__}")
    if v < minimum:
        _fail(pointer, f"must be >= {minimum}")
    return v


def _positive(v, n: int, pointer: str) -> float:
    return _real(v, pointer, positive=True)


def _check_starts(factors, pointer: str):
    """Fail once the product of factors, the starts made from the key at
    pointer, passes MAX_STARTS; it is never multiplied further."""
    total = 1
    for factor in factors:
        total *= factor
        if total > MAX_STARTS:
            _fail(pointer, f"makes more than {MAX_STARTS} starts in one block")


def _starts(minimum: int, factors=lambda v, n: [v]):
    """Parser of an integer key >= minimum from which its block makes the
    product of factors(v, n) starts; [r] * n for a grid's resolution."""
    def parse(v, n: int, pointer: str) -> int:
        _check_starts(factors(_integer(v, pointer, minimum), n), pointer)
        return v
    return parse


_per_axis = _starts(2, lambda r, n: [r] * n)  # one resolution for every axis of a grid


def _point(value, n: int, pointer: str) -> list[float]:
    if not isinstance(value, list) or len(value) != n:
        _fail(pointer, f"expected a list of {n} numbers")
    return [_real(c, f"{pointer}/{i}") for i, c in enumerate(value)]


def _expression(text, n: int, pointer: str):
    """Parse one expression string; a syntax error keeps its position."""
    if not isinstance(text, str):
        _fail(pointer, "expected an expression string")
    try:
        return parse_expr(text, n)
    except ExprSyntaxError as exc:  # its text ends with its position
        _fail(pointer, str(exc))


def _parse_set(obj, n: int, pointer: str) -> CompactSet:
    obj = _expect_object(obj, pointer)
    kind = obj.get("type")
    try:
        if kind == "point":
            _reject_unknown(obj, {"type", "coords"}, pointer)
            return SinglePoint(_point(obj.get("coords"), n, f"{pointer}/coords"))
        if kind == "ball":
            _reject_unknown(obj, {"type", "center", "radius"}, pointer)
            center = _point(obj.get("center"), n, f"{pointer}/center")
            radius = _real(obj.get("radius"), f"{pointer}/radius")
            if radius < 0:
                _fail(f"{pointer}/radius", "must be >= 0")
            return ClosedBall(center, radius)
        if kind == "box":
            _reject_unknown(obj, {"type", "lo", "hi"}, pointer)
            return Box(
                _point(obj.get("lo"), n, f"{pointer}/lo"),
                _point(obj.get("hi"), n, f"{pointer}/hi"),
            )
        if kind == "cloud":
            _reject_unknown(obj, {"type", "points"}, pointer)
            pts = obj.get("points")
            if not isinstance(pts, list) or not pts:
                _fail(f"{pointer}/points", "expected a nonempty list of points")
            return PointCloud(
                [_point(p, n, f"{pointer}/points/{i}") for i, p in enumerate(pts)]
            )
    except ProblemFormatError:
        raise  # keep the precise inner pointer
    except ValueError as exc:
        _fail(pointer, str(exc))
    _fail(f"{pointer}/type", "must be one of point, ball, box, cloud")


def _parse_box(value, n: int, pointer: str) -> list[list[float]]:
    """Validate a [lo, hi] box and return its corners as float lists."""
    if not isinstance(value, list) or len(value) != 2:
        _fail(pointer, "expected [lo, hi] corner lists")
    lo = _point(value[0], n, f"{pointer}/0")
    hi = _point(value[1], n, f"{pointer}/1")
    try:
        Box(lo, hi)
    except ValueError as exc:
        _fail(pointer, str(exc))
    return [lo, hi]


def _method(v, n: int, pointer: str) -> str:
    method = _METHOD_ALIASES.get(v) if isinstance(v, str) else None
    if method is None:
        _fail(pointer, f"must be one of {sorted(_METHOD_ALIASES)}")
    return method


def _epsilons(v, n: int, pointer: str) -> list[float]:
    if not isinstance(v, list) or not v:
        _fail(pointer, "expected a nonempty list of numbers")
    return [_real(e, f"{pointer}/{i}", positive=True) for i, e in enumerate(v)]


def _resolution(v, n: int, pointer: str):
    """One node count for every axis, or a list of one per axis."""
    if not isinstance(v, list):
        return _per_axis(v, n, pointer)
    res = [_integer(r, f"{pointer}/{i}", 2) for i, r in enumerate(v)]
    if len(res) != n:
        _fail(pointer, f"expected {n} entries")
    _check_starts(res, pointer)
    return res


def _quadrature_name(v, n: int, pointer: str) -> str:
    if v not in _QUADRATURES:
        _fail(pointer, f"must be {' or '.join(_QUADRATURES)}")
    return v


def _scalar_text(text, n: int, pointer: str) -> str:
    _expression(text, n, pointer)
    return text


def _annulus(v, n: int, pointer: str) -> list[float]:
    if not isinstance(v, list) or len(v) != 2:
        _fail(pointer, "expected [r_in, r_out]")
    r_in, r_out = (_real(r, f"{pointer}/{i}") for i, r in enumerate(v))
    if not (r_in >= 0 and r_out > r_in):
        _fail(pointer, "needs 0 <= r_in < r_out")
    return [r_in, r_out]


def converse_config(block: dict) -> ConverseConfig:
    """The ConverseConfig of a parsed converse block."""
    return ConverseConfig(block["horizon"], block["out_dt"], block["lambda"], block["quadrature"])


def _sampled_over(span: str) -> tuple:
    """The output-grid rule of orbits sampled over the key span at out_dt."""
    return "out_dt", lambda b: check_sampling(b[span], b["out_dt"])


# Each section: its keys' (parser, default) pairs in check order, then the
# rules that tie keys together, as (key reported at, check of the section).
_SECTIONS = {
    "integrator": ({
        "method": (_method, IntegratorConfig.method),
        "dt": (_positive, IntegratorConfig.dt),
        "rel_tol": (_positive, IntegratorConfig.rel_tol),
        "abs_tol": (_positive, IntegratorConfig.abs_tol),
        "blowup_radius": (_positive, IntegratorConfig.blowup_radius),
        "max_steps": (lambda v, n, pointer: _integer(v, pointer, 1), IntegratorConfig.max_steps),
    }, ()),
    # The optional analysis blocks, in validation order.
    "omega": ({
        "x0": (_point, _REQUIRED),
        "transient": (_positive, 50.0),
        "window": (_positive, 20.0),
        "out_dt": (_positive, 0.01),
        "cluster_tol": (_positive, 1e-3),
    }, (_sampled_over("window"),)),
    "stability": ({
        "epsilons": (_epsilons, _REQUIRED),
        "horizon": (_positive, 20.0),
        "resolution": (_per_axis, 9),
        # A delta probe starts the shell points and a quarter as many inner ones.
        "shell_samples": (_starts(1, lambda s, n: [s + (s + 3) // 4]), 12),
        "tol": (_positive, 1e-3),
        "out_dt": (_positive, 0.05),
        "box": (_parse_box, _OPTIONAL),
    }, (_sampled_over("horizon"),)),
    "roa": ({
        "box": (_parse_box, _REQUIRED),
        "resolution": (_resolution, 11),
        "horizon": (_positive, 20.0),
        "tol": (_positive, 1e-3),
        "out_dt": (_positive, 0.05),
    }, (_sampled_over("horizon"),)),
    "converse": ({
        "quadrature": (_quadrature_name, ConverseConfig.quadrature),
        "lambda": (_positive, ConverseConfig.lam),
        "horizon": (_positive, 10.0),
        "out_dt": (_positive, 0.01),
        "samples": (_starts(1), 12),
        "box": (_parse_box, _OPTIONAL),
    }, (_sampled_over("horizon"), ("quadrature", converse_config))),
    "certificate": ({
        "L": (_scalar_text, _REQUIRED),
        "annulus": (_annulus, _REQUIRED),
        "samples": (_starts(1), 100),
        "zero_tol": (_positive, 1e-9),
        "decrease_time": (_positive, 1.0),
    }, ()),
}
_BLOCKS = [name for name in _SECTIONS if name != "integrator"]
_TOP_KEYS = {"dimension", "field", "set", "seed", *_SECTIONS}


def _validate_block(name: str, obj, n: int) -> dict:
    """Parse one section by its table entry: the object and its unknown
    keys, then each key in table order, then the section's rules."""
    pointer = f"/{name}"
    parsers, rules = _SECTIONS[name]
    obj = _expect_object(obj, pointer)
    _reject_unknown(obj, parsers, pointer)
    out = {}
    for key, (parse, default) in parsers.items():
        if key in obj:
            out[key] = parse(obj[key], n, f"{pointer}/{key}")
        elif default is _REQUIRED:
            _fail(f"{pointer}/{key}", "required key missing")
        elif default is not _OPTIONAL:  # bounded as a value in the file is
            out[key] = parse(default, n, f"{pointer}/{key}")
    for key, check in rules:
        try:
            check(out)
        except ValueError as exc:
            _fail(f"{pointer}/{key}", str(exc))
    return out


@dataclass(frozen=True, eq=False)
class ProblemDefinition:
    dimension: int
    field_strings: tuple[str, ...]
    field: VectorFieldSpec
    set_spec: CompactSet
    integrator: IntegratorConfig
    seed: int
    omega: dict | None = None
    stability: dict | None = None
    roa: dict | None = None
    converse: dict | None = None
    certificate: dict | None = None

    def block_seed(self, block: str) -> int:
        """Stable per-block seed so adding a block never shifts another's."""
        return (self.seed + zlib.crc32(block.encode("ascii"))) % (2**31)

    def to_json(self) -> dict:
        out = {
            "dimension": self.dimension,
            "field": list(self.field_strings),
            "set": self.set_spec.to_json(),
            "integrator": asdict(self.integrator),
            "seed": self.seed,
        }
        for name in _BLOCKS:
            block = getattr(self, name)
            if block is not None:
                out[name] = block
        return out

    @classmethod
    def from_json(cls, obj) -> "ProblemDefinition":
        obj = _expect_object(obj, "")
        _reject_unknown(obj, _TOP_KEYS, "")
        if "dimension" not in obj:
            _fail("/dimension", "required integer missing")
        n = _integer(obj["dimension"], "/dimension", 1)

        raw_field = obj.get("field")
        if not isinstance(raw_field, list) or len(raw_field) != n:
            _fail("/field", f"expected a list of {n} expression strings")
        components = [_expression(text, n, f"/field/{i}") for i, text in enumerate(raw_field)]
        try:
            field = VectorFieldSpec(tuple(components), n)
        except DimensionMismatchError as exc:
            _fail("/field", str(exc))

        if "set" not in obj:
            _fail("/set", "required object missing")
        set_spec = _parse_set(obj["set"], n, "/set")
        section = obj.get("integrator")  # null means the defaults
        integrator = IntegratorConfig(
            **_validate_block("integrator", {} if section is None else section, n)
        )
        seed = _integer(obj.get("seed", 0), "/seed", 0)
        blocks = {name: _validate_block(name, obj[name], n) for name in _BLOCKS if name in obj}
        return cls(
            dimension=n,
            field_strings=tuple(raw_field),
            field=field,
            set_spec=set_spec,
            integrator=integrator,
            seed=seed,
            **blocks,
        )


def read_json(path: str):
    """The JSON value in the file at path. Text that is not UTF-8 or not
    JSON fails at pointer "", with the byte offset where one is known."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise ProblemFormatError("", f"not UTF-8 text at byte offset {exc.start}") from exc
    except json.JSONDecodeError as exc:  # exc.pos counts characters
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ProblemFormatError("", f"malformed JSON at byte offset {offset}: {exc.msg}") from exc
    except ValueError as exc:  # an integer longer than int() converts
        raise ProblemFormatError("", f"unreadable JSON number: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ProblemFormatError("", "JSON nested too deeply") from exc


def load_problem(path: str) -> ProblemDefinition:
    """Read and validate a problem file; JSON errors carry the byte offset."""
    return ProblemDefinition.from_json(read_json(path))
