"""Outside-in tracer for lyapset: spans and counts at module boundaries.

The program is not changed. While a Tracer is installed, every public
function of each layer module is replaced, in every lyapset module that
binds it, by a wrapper that records a span (name, start, end, parent).
`distance` and `distances` of each CompactSet class and
ProblemDefinition.from_json are wrapped the same way. Generator functions
get one span per resume. RHS, candidate and gradient evaluations are
counted by wrapping the compile functions as bound in lyapset.flow and
lyapset.lyapunov, so the compiled closures count their own calls.

A layer's self time is the time its spans cover minus the time their
child spans cover. In-run calibration samples (see calib.py) are recorded
as spans of their own, so no layer is charged for them.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("expr", "flow", "geometry", "limits", "stability", "lyapunov", "problem", "cli", "render")
ROOT = "bench.pass"
CALIBRATION = "bench.calibration"

# Orbits started while one of these is open are attributed to it.
STABILITY_CALLERS = {
    "stability.estimate_delta": "stability.delta_orbits",
    "stability.uniform_attraction_time": "stability.uniform_orbits",
    "stability.check_positive_invariance": "stability.invariance_orbits",
}
COUNT_KEYS = (
    "flow.orbits", "flow.samples", "flow.fail_escape", "flow.fail_domain",
    "flow.fail_step_limit", "flow.generators_closed_early",
    "geometry.distance_calls", "geometry.distance_points", "geometry.shell_points",
    "limits.nodes", "limits.nodes_escaped", "limits.nodes_error", "limits.omega_reps",
    "lyapunov.converse_rows", "lyapunov.certificate_samples", *STABILITY_CALLERS.values(),
)
COMPILE_FUNCTIONS = ("expr.compile_vector_field", "expr.compile_scalar", "expr.compile_gradient")


def _module(layer: str):
    # `lyapset.flow` as an attribute of the package is the function flow(),
    # which shadows the submodule; import_module returns the module itself.
    return importlib.import_module(f"lyapset.{layer}")


def _lyapset_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lyapset" or name.startswith("lyapset."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        # Finished spans, column-wise to keep hundreds of thousands cheap.
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_name = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[list] = []  # open frames: [id, name_id, start, child_s, cal_s]
        self._open = Counter()  # name_id -> open frames with that name
        self._next_id = 0
        self._calibration_spans = 0
        self.self_s: Counter = Counter()  # layer -> self time
        self.counts: Counter = Counter(dict.fromkeys(COUNT_KEYS, 0))
        self.orbit_net_s: list[float] = []
        self.compile_s = 0.0  # time in the compile functions of expr
        self._cells = {key: [0] for key in ("rhs_flow", "rhs_lyapunov", "scalar", "gradient")}
        self._undo: list[tuple[object, str, object]] = []
        self._stability_ids: dict[int, str] = {}
        self._error_kinds: tuple = ()
        self._hook_table: dict = {}

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(name.split(".", 1)[0])
        return nid

    def _enter(self, nid: int) -> list:
        frame = [self._next_id, nid, 0.0, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._open[nid] += 1
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        """Close the innermost frame; return its duration net of calibration."""
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        nid = frame[1]
        self._open[nid] -= 1
        dur = end - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
        self.self_s[self._layer_of[nid]] += dur - frame[3]
        self._record(frame[0], -1 if parent is None else parent[0], nid, frame[2], end)
        return dur - frame[4]

    def _record(self, sid, parent, nid, start, end):
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)

    def calibration_span(self, t0: float, t1: float):
        """Record an in-run calibration sample as a child of the open span."""
        dur = t1 - t0
        for frame in self._stack:
            frame[4] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        sid = self._next_id
        self._next_id += 1
        self._calibration_spans += 1
        self._record(sid, -1 if parent is None else parent[0], self._name_id(CALIBRATION), t0, t1)

    def run_root(self, fn):
        """Run fn() under the root span; return (result, net root duration)."""
        frame = self._enter(self._name_id(ROOT))
        try:
            result = fn()
        finally:
            net = self._exit(frame)
        return result, net

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook_key: str | None = None):
        nid = self._name_id(name)
        hook = self._hook_table.get(hook_key or name)
        if inspect.isgeneratorfunction(fn):
            tracer = self

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                context = tracer._orbit_context()
                return tracer._traced_generator(nid, fn(*args, **kwargs), hook, context)

            return gen_wrapper

        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                net = exit_(frame)
                if hook is not None:
                    hook(args, kwargs, None, exc, net)
                raise
            net = exit_(frame)
            if hook is not None:
                hook(args, kwargs, result, None, net)
            return result

        return wrapper

    def _traced_generator(self, nid, gen, hook, context):
        net_s = 0.0
        yielded = 0
        error = None
        try:
            while True:
                frame = self._enter(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    net_s += self._exit(frame)
                    return
                except BaseException as exc:
                    net_s += self._exit(frame)
                    error = exc
                    raise
                net_s += self._exit(frame)
                yielded += 1
                yield item
        except GeneratorExit:
            self.counts["flow.generators_closed_early"] += 1
            raise
        finally:
            gen.close()
            if hook is not None:
                hook(context, yielded, error, net_s)

    def _counting_compile(self, compile_fn, key: str):
        cell = self._cells[key]

        def compile_counted(spec):
            compiled = compile_fn(spec)

            def counted(x):
                cell[0] += 1
                return compiled(x)

            return counted

        return compile_counted

    def _replace(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        errors = _module("errors")
        self._error_kinds = (
            (errors.EscapedDomainError, "flow.fail_escape"),
            (errors.EvalDomainError, "flow.fail_domain"),
            (errors.StepLimitError, "flow.fail_step_limit"),
        )
        self._stability_ids = {self._name_id(k): v for k, v in STABILITY_CALLERS.items()}
        self._hook_table = self._hooks()

        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = _module(layer)
            for name, value in vars(mod).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[id(value)] = self._wrap(f"{layer}.{name}", value)
        for mod in _lyapset_modules():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._replace(mod, name, wrapped[id(value)])

        geometry = _module("geometry")
        for cls in vars(geometry).values():
            if isinstance(cls, type) and issubclass(cls, geometry.CompactSet):
                for meth in ("distance", "distances"):
                    if meth in vars(cls):
                        name = f"geometry.{cls.__name__}.{meth}"
                        self._replace(cls, meth, self._wrap(name, vars(cls)[meth], meth))
        definition = _module("problem").ProblemDefinition
        from_json = vars(definition)["from_json"].__func__
        self._replace(definition, "from_json",
                      classmethod(self._wrap("problem.ProblemDefinition.from_json", from_json)))

        flow, lyapunov = _module("flow"), _module("lyapunov")
        self._replace(flow, "compile_vector_field",
                      self._counting_compile(flow.compile_vector_field, "rhs_flow"))
        for attr, key in (("compile_vector_field", "rhs_lyapunov"),
                          ("compile_scalar", "scalar"), ("compile_gradient", "gradient")):
            self._replace(lyapunov, attr, self._counting_compile(getattr(lyapunov, attr), key))
        # Fields compiled before install hold uncounted closures.
        flow._compiled.cache_clear()

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        _module("flow")._compiled.cache_clear()

    # -- counts ------------------------------------------------------------

    def _orbit_context(self):
        for nid, key in self._stability_ids.items():
            if self._open[nid]:
                return key
        return None

    def _count_orbit(self, context, samples: int, exc, net_s: float):
        counts = self.counts
        counts["flow.orbits"] += 1
        counts["flow.samples"] += samples
        if context is not None:
            counts[context] += 1
        if exc is not None:
            for kind, key in self._error_kinds:
                if isinstance(exc, kind):
                    counts[key] += 1
                    break
        self.orbit_net_s.append(net_s)

    def _hooks(self):
        counts = self.counts

        def flow_hook(args, kwargs, result, exc, net):
            t = kwargs["t"] if "t" in kwargs else args[2]
            if float(t) != 0.0:
                self._count_orbit(self._orbit_context(), 1 if exc is None else 0, exc, net)

        def trajectory_hook(args, kwargs, result, exc, net):
            self._count_orbit(self._orbit_context(), 0 if exc else len(result) - 1, exc, net)

        def partial_hook(args, kwargs, result, exc, net):
            if exc is not None:
                self._count_orbit(self._orbit_context(), 0, exc, net)
            else:
                traj, error = result
                self._count_orbit(self._orbit_context(), len(traj) - 1, error, net)

        def iterate_hook(context, yielded, exc, net):
            self._count_orbit(context, yielded, exc, net)

        def distance_hook(args, kwargs, result, exc, net):
            counts["geometry.distance_calls"] += 1
            counts["geometry.distance_points"] += 1

        def distances_hook(args, kwargs, result, exc, net):
            counts["geometry.distance_calls"] += 1
            points = args[1] if len(args) > 1 else kwargs["points"]
            counts["geometry.distance_points"] += len(points)

        def shell_hook(args, kwargs, result, exc, net):
            if exc is None:
                counts["geometry.shell_points"] += len(result)

        def grid_hook(args, kwargs, result, exc, net):
            if exc is None:
                counts["limits.nodes"] += len(result.labels)
                counts["limits.nodes_escaped"] += sum(result.escaped)
                counts["limits.nodes_error"] += sum(e is not None for e in result.errors)

        def omega_hook(args, kwargs, result, exc, net):
            if exc is None:
                counts["limits.omega_reps"] += len(result.points)

        def converse_hook(args, kwargs, result, exc, net):
            if exc is None:
                counts["lyapunov.converse_rows"] += len(result.rows)

        def certificate_hook(args, kwargs, result, exc, net):
            if exc is None:
                counts["lyapunov.certificate_samples"] += result.samples

        def compile_hook(args, kwargs, result, exc, net):
            self.compile_s += net

        hooks = {
            "flow.flow": flow_hook,
            "flow.trajectory": trajectory_hook,
            "flow.partial_trajectory": partial_hook,
            "flow.iterate_orbit": iterate_hook,
            "distance": distance_hook,
            "distances": distances_hook,
            "geometry.sample_shell": shell_hook,
            "limits.roa_grid": grid_hook,
            "limits.estimate_omega": omega_hook,
            "lyapunov.converse_table": converse_hook,
            "lyapunov.verify_certificate": certificate_hook,
        }
        for name in COMPILE_FUNCTIONS:
            hooks[name] = compile_hook
        return hooks

    # -- results -----------------------------------------------------------

    def layer_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same workload and seed."""
        counts = dict(self.counts)
        rhs_flow = self._cells["rhs_flow"][0]
        orbits = counts["flow.orbits"]
        counts["expr.rhs_calls"] = rhs_flow + self._cells["rhs_lyapunov"][0]
        counts["expr.scalar_calls"] = self._cells["scalar"][0]
        counts["expr.gradient_calls"] = self._cells["gradient"][0]
        # rk45: one first-stage call per orbit, then six calls per attempted step.
        steps = (rhs_flow - orbits) / 6
        counts["flow.steps_attempted"] = int(steps) if steps.is_integer() else steps
        counts["flow.rhs_per_orbit"] = rhs_flow / orbits if orbits else 0.0
        # Calibration spans are left out: their number follows the pass's duration.
        counts["trace.spans"] = len(self.span_id) - self._calibration_spans
        return counts

    def write_spans(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({
                "names": self.names,
                "columns": ["id", "parent", "name", "start", "end"],
                "id": self.span_id.tolist(),
                "parent": self.span_parent.tolist(),
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            }, fh)
