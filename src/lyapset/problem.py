"""Problem-definition files: parsing, validation, and canonical serialization.

A problem is one JSON object naming the vector field, the compact set,
the integrator, a seed, and optional analysis blocks. Validation is
strict: unknown keys and type mismatches are reported with JSON-pointer
paths so a typo in a knob name cannot silently disable a block.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass

from .errors import DimensionMismatchError, ExprSyntaxError, ProblemFormatError
from .expr import VectorFieldSpec, parse as parse_expr
from .flow import IntegratorConfig
from .geometry import Box, ClosedBall, CompactSet, PointCloud, SinglePoint

_METHOD_ALIASES = {
    "rk45": "rk45_adaptive",
    "rk45_adaptive": "rk45_adaptive",
    "rk4": "rk4_fixed",
    "rk4_fixed": "rk4_fixed",
}

_INTEGRATOR_KEYS = {"method", "dt", "rel_tol", "abs_tol", "blowup_radius", "max_steps"}
_OMEGA_KEYS = {"x0", "transient", "window", "out_dt", "cluster_tol"}
_STABILITY_KEYS = {"epsilons", "horizon", "box", "resolution", "shell_samples", "tol", "out_dt"}
_ROA_KEYS = {"box", "resolution", "horizon", "tol", "out_dt"}
_CONVERSE_KEYS = {"lambda", "horizon", "out_dt", "quadrature", "samples", "box"}
_CERTIFICATE_KEYS = {"L", "annulus", "samples", "zero_tol", "decrease_time"}


def _fail(pointer: str, message: str):
    raise ProblemFormatError(pointer, message)


def _expect_object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        _fail(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed: set, pointer: str):
    for key in obj:
        if key not in allowed:
            _fail(f"{pointer}/{key}", "unknown key")


def _number(obj: dict, key: str, pointer: str, default=None, positive=False):
    if key not in obj:
        if default is None:
            _fail(f"{pointer}/{key}", "required number missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{pointer}/{key}", f"expected a number, got {type(v).__name__}")
    v = float(v)
    if positive and not v > 0:
        _fail(f"{pointer}/{key}", "must be > 0")
    return v


def _integer(obj: dict, key: str, pointer: str, default=None, minimum=None):
    if key not in obj:
        if default is None:
            _fail(f"{pointer}/{key}", "required integer missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{pointer}/{key}", f"expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        _fail(f"{pointer}/{key}", f"must be >= {minimum}")
    return v


def _point(value, n: int, pointer: str) -> list[float]:
    if not isinstance(value, list) or len(value) != n:
        _fail(pointer, f"expected a list of {n} numbers")
    out = []
    for i, c in enumerate(value):
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            _fail(f"{pointer}/{i}", "expected a number")
        out.append(float(c))
    return out


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
            radius = _number(obj, "radius", pointer)
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


def _parse_integrator(obj, pointer: str) -> IntegratorConfig:
    if obj is None:
        return IntegratorConfig()
    obj = _expect_object(obj, pointer)
    _reject_unknown(obj, _INTEGRATOR_KEYS, pointer)
    method_raw = obj.get("method", "rk45")
    method = _METHOD_ALIASES.get(method_raw)
    if method is None:
        _fail(f"{pointer}/method", f"must be one of {sorted(_METHOD_ALIASES)}")
    try:
        return IntegratorConfig(
            method=method,
            dt=_number(obj, "dt", pointer, default=0.01, positive=True),
            rel_tol=_number(obj, "rel_tol", pointer, default=1e-9, positive=True),
            abs_tol=_number(obj, "abs_tol", pointer, default=1e-12, positive=True),
            blowup_radius=_number(obj, "blowup_radius", pointer, default=1e6, positive=True),
            max_steps=_integer(obj, "max_steps", pointer, default=10_000_000, minimum=1),
        )
    except ProblemFormatError:
        raise  # keep the precise inner pointer
    except ValueError as exc:
        _fail(pointer, str(exc))


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
        n = _integer(obj, "dimension", "", minimum=1)

        raw_field = obj.get("field")
        if not isinstance(raw_field, list) or len(raw_field) != n:
            _fail("/field", f"expected a list of {n} expression strings")
        components = []
        for i, text in enumerate(raw_field):
            if not isinstance(text, str):
                _fail(f"/field/{i}", "expected an expression string")
            try:
                components.append(parse_expr(text, n))
            except ExprSyntaxError as exc:
                _fail(f"/field/{i}", f"{exc} (position {exc.position})")
        try:
            field = VectorFieldSpec(tuple(components), n)
        except DimensionMismatchError as exc:
            _fail("/field", str(exc))

        if "set" not in obj:
            _fail("/set", "required object missing")
        set_spec = _parse_set(obj["set"], n, "/set")
        integrator = _parse_integrator(obj.get("integrator"), "/integrator")
        seed = _integer(obj, "seed", "", default=0, minimum=0)

        blocks = {}
        for name, validator in _BLOCKS.items():
            if name in obj:
                blocks[name] = validator(obj[name], n, f"/{name}")
        return cls(
            dimension=n,
            field_strings=tuple(raw_field),
            field=field,
            set_spec=set_spec,
            integrator=integrator,
            seed=seed,
            **blocks,
        )


def _validate_omega(obj, n, pointer) -> dict:
    obj = _expect_object(obj, pointer)
    _reject_unknown(obj, _OMEGA_KEYS, pointer)
    if "x0" not in obj:
        _fail(f"{pointer}/x0", "required initial point missing")
    return {
        "x0": _point(obj["x0"], n, f"{pointer}/x0"),
        "transient": _number(obj, "transient", pointer, default=50.0, positive=True),
        "window": _number(obj, "window", pointer, default=20.0, positive=True),
        "out_dt": _number(obj, "out_dt", pointer, default=0.01, positive=True),
        "cluster_tol": _number(obj, "cluster_tol", pointer, default=1e-3, positive=True),
    }


def _validate_stability(obj, n, pointer) -> dict:
    obj = _expect_object(obj, pointer)
    _reject_unknown(obj, _STABILITY_KEYS, pointer)
    eps = obj.get("epsilons")
    if not isinstance(eps, list) or not eps:
        _fail(f"{pointer}/epsilons", "expected a nonempty list of numbers")
    epsilons = []
    for i, e in enumerate(eps):
        if isinstance(e, bool) or not isinstance(e, (int, float)) or not e > 0:
            _fail(f"{pointer}/epsilons/{i}", "expected a number > 0")
        epsilons.append(float(e))
    out = {
        "epsilons": epsilons,
        "horizon": _number(obj, "horizon", pointer, default=20.0, positive=True),
        "resolution": _integer(obj, "resolution", pointer, default=9, minimum=2),
        "shell_samples": _integer(obj, "shell_samples", pointer, default=12, minimum=1),
        "tol": _number(obj, "tol", pointer, default=1e-3, positive=True),
        "out_dt": _number(obj, "out_dt", pointer, default=0.05, positive=True),
    }
    if "box" in obj:
        out["box"] = _parse_box(obj["box"], n, f"{pointer}/box")
    return out


def _validate_roa(obj, n, pointer) -> dict:
    obj = _expect_object(obj, pointer)
    _reject_unknown(obj, _ROA_KEYS, pointer)
    if "box" not in obj:
        _fail(f"{pointer}/box", "required box missing")
    box = _parse_box(obj["box"], n, f"{pointer}/box")
    res = obj.get("resolution", 11)
    if isinstance(res, list):
        res = [
            _integer({"r": r}, "r", f"{pointer}/resolution/{i}", minimum=2)
            for i, r in enumerate(res)
        ]
        if len(res) != n:
            _fail(f"{pointer}/resolution", f"expected {n} entries")
    else:
        res = _integer(obj, "resolution", pointer, default=11, minimum=2)
    return {
        "box": box,
        "resolution": res,
        "horizon": _number(obj, "horizon", pointer, default=20.0, positive=True),
        "tol": _number(obj, "tol", pointer, default=1e-3, positive=True),
        "out_dt": _number(obj, "out_dt", pointer, default=0.05, positive=True),
    }


def _validate_converse(obj, n, pointer) -> dict:
    obj = _expect_object(obj, pointer)
    _reject_unknown(obj, _CONVERSE_KEYS, pointer)
    quad = obj.get("quadrature", "trapezoid")
    if quad not in ("trapezoid", "simpson"):
        _fail(f"{pointer}/quadrature", "must be trapezoid or simpson")
    out = {
        "lambda": _number(obj, "lambda", pointer, default=1.0, positive=True),
        "horizon": _number(obj, "horizon", pointer, default=10.0, positive=True),
        "out_dt": _number(obj, "out_dt", pointer, default=0.01, positive=True),
        "quadrature": quad,
        "samples": _integer(obj, "samples", pointer, default=12, minimum=1),
    }
    if "box" in obj:
        out["box"] = _parse_box(obj["box"], n, f"{pointer}/box")
    return out


def _validate_certificate(obj, n, pointer) -> dict:
    obj = _expect_object(obj, pointer)
    _reject_unknown(obj, _CERTIFICATE_KEYS, pointer)
    text = obj.get("L")
    if not isinstance(text, str):
        _fail(f"{pointer}/L", "required expression string missing")
    try:
        parse_expr(text, n)
    except ExprSyntaxError as exc:
        _fail(f"{pointer}/L", f"{exc} (position {exc.position})")
    annulus = obj.get("annulus")
    if not isinstance(annulus, list) or len(annulus) != 2:
        _fail(f"{pointer}/annulus", "expected [r_in, r_out]")
    r_in, r_out = annulus
    for i, r in enumerate(annulus):
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            _fail(f"{pointer}/annulus/{i}", "expected a number")
    if not (float(r_in) >= 0 and float(r_out) > float(r_in)):
        _fail(f"{pointer}/annulus", "needs 0 <= r_in < r_out")
    return {
        "L": text,
        "annulus": [float(r_in), float(r_out)],
        "samples": _integer(obj, "samples", pointer, default=100, minimum=1),
        "zero_tol": _number(obj, "zero_tol", pointer, default=1e-9, positive=True),
        "decrease_time": _number(obj, "decrease_time", pointer, default=1.0, positive=True),
    }


# The optional analysis blocks, in validation order.
_BLOCKS = {
    "omega": _validate_omega,
    "stability": _validate_stability,
    "roa": _validate_roa,
    "converse": _validate_converse,
    "certificate": _validate_certificate,
}
_TOP_KEYS = {"dimension", "field", "set", "integrator", "seed", *_BLOCKS}


def load_problem(path: str) -> ProblemDefinition:
    """Read and validate a problem file; JSON errors carry the byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            "", f"malformed JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    return ProblemDefinition.from_json(obj)
