"""Layer timings of the integrator and the analyses, compared across checkouts.

    python3 bench/layers.py --rounds 5 --out BENCH_13.json parent=/path/to/parent/src change=src

Each NAME=SRC argument names the `src/` directory of one checkout. Every
checkout runs in its own fresh interpreter (this script with --worker),
and the checkouts take turns for --rounds rounds, so slow drifts of a
shared host fall on all of them alike. The output holds the environment
and, per checkout and layer, the median, quartiles and minimum over all
repeats in seconds, and the median in calibration units: the layer's
time over the time of a fixed pure-Python loop run around and inside it
(perfbench/calib.py). No minimum is given in calibration units: for a
layer spent mostly in NumPy, one run's calibration, not the layer, sets
it (BENCH_12.json: the NumPy lane batch of one lane had min_cal at 0.16
of its median while min_s was at 0.69). A layer that ran a native call
in row slices on threads is marked "threaded": true. Its median_cal
cannot be compared with a serial layer's: the calibration loop runs
while the slice threads hold the cores (BENCH_25.json: the threaded
native_orbit/vdp/1681 at 48.1 ms and 217.8 cal, the serial layer at 80.3
ms and 253.2 cal). Compare threaded layers in seconds.

Layers, each timed after one untimed call so that generated code is
compiled and cached:
  attempt          one harmonic orbit to t = 8 with no sample in between
                   (rel_tol 1e-10); per attempt, it is one Dormand-Prince
                   attempt with its step control
  probe_orbit      one harmonic delta-probe orbit: T = 8, out_dt 0.1,
                   rel_tol 1e-10, abs_tol 1e-13
  converse_orbit   one orbit of the 4-D cycle field of perfbench's
                   cycle_cloud: T = 10, out_dt 0.02, default tolerances
  orbit_loop/<field>/<m>
                   integrate_lanes with flow._NATIVE_FROM forced to
                   sys.maxsize: one generated orbit loop per start, on m =
                   1, 3, 25, 49 and 100 starts: the harmonic field from
                   [-1, 1]^2 with the probe_orbit tolerances, the cycle
                   field from [-1, 1]^4 with the default ones; T = 8,
                   out_dt 0.1
  native_orbit/<field>/<m>
                   the same with _NATIVE_FROM forced to 0: the native loop
                   runs every start, where the checkout has one and it
                   builds; the native layers are left out elsewhere
  native_orbit/vdp/1681
                   native_orbit on perfbench's vdp_roa_grid: the reversed
                   Van der Pol field from the 41 x 41 grid nodes of
                   [-3, 3]^2, T = 20, out_dt 0.05, rel_tol 1e-9, abs_tol
                   1e-12; it has no orbit_loop counterpart. Its 672,400
                   samples are past flow._PARALLEL_FROM, so where the
                   checkout cuts a native run into row slices on threads,
                   this runs as many slices as the host has cores
  native_orbit/vdp/1681/serial
                   the same with flow._WORKERS forced to 1, one slice in
                   the caller's thread; a checkout without _WORKERS runs
                   every native call so, and times the same call here
  integrate_lanes/vdp/1681
                   the same grid at the checkout's own defaults, with a
                   visit that reads nothing: where the native loop runs,
                   it does so here
  roa_grid/vdp/41  roa_grid itself on that grid, as perfbench's
                   vdp_roa_grid calls it (SinglePoint origin, tol 1e-3):
                   the integration with the distances to the set and
                   their reductions, wherever the checkout takes them
  native_build     one cold build of the native loop of the 4-D cycle
                   field, into a temporary cache
  estimate_delta   estimate_delta on problems/harmonic_oscillator.json at
                   its first epsilon, with the stability block's settings
  omega/cluster    limits._greedy_cluster of perfbench's cycle_cloud omega
                   window: the 4-D cycle field from (0.5, 0, 0, 0) after a
                   transient of 60, 6.7 time units at out_dt 0.01 (671
                   samples), cluster_tol 1e-3
  omega/hausdorff  geometry.hausdorff of that window's representatives and
                   their images a flow of out_dt later, as estimate_omega
                   takes its invariance defect
  omega/hausdorff/numpy
                   the same with flow._nearest_kernel forced to give no
                   function: where hausdorff takes PointCloud's distances,
                   the NumPy search over sorted windows answers them; a
                   checkout whose hausdorff has a search of its own runs
                   the same call as omega/hausdorff
  hausdorff/far/4000
                   geometry.hausdorff of two 4,000-point sets of R^2, drawn
                   from [-1, 1]^2 and from it moved by 100 in each
                   coordinate: no member has a near partner, so no row's
                   search ends early. Also run as hausdorff/far/4000/numpy,
                   with the nearest search forced off as above
  cloud_distances/cycle/<m>
                   PointCloud.distances on cycle_cloud's omega cloud of m
                   members (671), over the points that one pass of that
                   workload at seed 0 queries: its converse samples and
                   its certificate's shell points, in their calls, with
                   the shell function forced to give no function, so that
                   the NumPy loops ask for the shell rays' distances as
                   they do in a checkout whose C rays take no cloud. They
                   run in C where the checkout has the nearest search
                   (flow._nearest_kernel) and it builds
  cloud_distances/cycle/<m>/numpy
                   the same with flow._nearest_kernel forced to give no
                   function, so that the checkout's fallback answers: the
                   NumPy search over sorted windows, or in a checkout
                   older than it, SciPy's KD-tree
  estimate_omega/vanderpol
                   estimate_omega with problems/vanderpol.json's omega block
  shell_points/point/10, shell_points/ball/100
                   geometry._shell_points with a generator seeded anew
                   per call: 10 rays at r = 0.05 around the origin of R^2,
                   as a delta probe draws them, and 100 rays at r = 0.3
                   around the ball of radius 0.5 at the origin of R^2, as
                   a certificate annulus does. They run in C where the
                   checkout has the shell function (flow._shell_search,
                   or flow._shell_kernel of one source per dimension) and
                   it builds
  shell_points/cloud/200
                   lyapunov._annulus_points on cycle_cloud's omega cloud
                   and annulus, (0.05, 1], 200 rays from a generator
                   seeded with 0, as that workload's certificate draws
                   them at seed 0; in C where the checkout's shell
                   function takes a cloud, else in the NumPy loops, whose
                   distances the nearest search takes
  shell_points/<set>/<m>/numpy
                   the same with that loader forced to give no function,
                   so that the NumPy loops run the rays
  converse_table/cycle/24
                   converse_table as one pass of cycle_cloud calls it at
                   seed 0: its 24 starts from [-3, 3]^4, its omega cloud,
                   ConverseConfig(10, 0.02) and default tolerances; the
                   orbits, the nearest search and the sliding maxima of
                   24 curves of 1,001 samples
  converse_table/cycle/24/T50
                   the same at horizon 50, curves of 5,001 samples
  verify_certificate/cycle/200
                   verify_certificate as that pass calls it: the sum of
                   squares on the annulus (0.05, 1] around the cloud, 200
                   samples, seed 0; the shell rays, 32 decrease orbits and
                   the candidate's margins
  analyze/<name>   `lyapset analyze` in process, per bundled problem
  report/<name>    the encoding of that problem's report alone, as its
                   analyze writes it: cli._report_text where the checkout
                   has it, else json.dumps with indent=2 after
                   cli._json_safe

The layers named after a loop force it; attempt and probe_orbit force
the orbit loop, so they time its attempt. The others run at the
checkout's own defaults, after the counting pass and one untimed call:
where a checkout builds a field's native loop once the field has done
enough work in the process, converse_orbit and the analyses run it.

A checkout whose flow module generates whole orbit loops, _compiled(V,
method), also reports per layer the runs of the orbit loop, from a start
or resumed from a native row, the rows of the native loop, and the step
attempts made in them; a native row's attempts come from the per-row
counts that the native loop returns, so that they equal the orbit
loop's. These repeat exactly, and each checkout's per-attempt times use
its own counts. Per checkout, orbit_over_native gives, per field and m,
the median time of the orbit loops over that of the native loop: above 1
the native loop is faster. This is a measurement, not a gate: perfbench
holds the gated end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import importlib
import inspect
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import calib  # noqa: E402  (perfbench is a directory of scripts, not a package)

PROBLEMS = ("harmonic_oscillator", "linear_sink", "unstable_linear", "vanderpol")
HARMONIC = ["x2", "-x1"]
CYCLE = ["x2", "(1 - x1^2)*x2 - x1", "x1 - x3", "x2 - 2*x4"]
CYCLE_X0 = [0.5, 0.0, 0.0, 0.0]  # cycle_cloud's omega start
VDP_REVERSED = ["-x2", "x1 - (1 - x1^2)*x2"]
# field/m of the orbit_loop and native_orbit layers
BATCHES = tuple(f"{field}/{m}" for field in ("harmonic", "cycle") for m in (1, 3, 25, 49, 100))
# the shell_points layers; each also runs as <layer>/numpy, with NumPy forced
SHELLS = ("shell_points/point/10", "shell_points/ball/100", "shell_points/cloud/200")
# the cloud_distances layer; it also runs as <layer>/numpy, with the fallback forced
CLOUD = "cloud_distances/cycle/671"
# the Hausdorff layers; each also runs as <layer>/numpy, with the fallback forced
HAUSDORFF = ("omega/hausdorff", "hausdorff/far/4000")
# cycle_cloud's converse and certificate calls at seed 0
CONVERSE, CONVERSE_T50, CERTIFICATE = (
    "converse_table/cycle/24", "converse_table/cycle/24/T50", "verify_certificate/cycle/200")
# layer: (timed runs per worker, calls per run); analyze layers: (5, 1).
REPEATS = {"attempt": (30, 10), "probe_orbit": (30, 10), "converse_orbit": (20, 2),
           "estimate_delta": (3, 1), "native_orbit/vdp/1681": (7, 1), "native_orbit/vdp/1681/serial": (7, 1),
           "integrate_lanes/vdp/1681": (7, 1), "roa_grid/vdp/41": (7, 1),
           "native_build": (5, 1),
           "omega/cluster": (20, 5), "omega/hausdorff": (20, 5), "omega/hausdorff/numpy": (20, 5),
           "hausdorff/far/4000": (7, 1), "hausdorff/far/4000/numpy": (7, 1),
           **{f"{shell}{forced}": (20, 10) for shell in SHELLS for forced in ("", "/numpy")},
           "estimate_omega/vanderpol": (10, 1),
           CONVERSE: (20, 1), CONVERSE_T50: (7, 1), CERTIFICATE: (20, 2),
           **{f"report/{name}": (20, 5) for name in PROBLEMS},
           **{f"{CLOUD}{forced}": (20, 2) for forced in ("", "/numpy")},
           **{f"{kind}/{batch}": (20, 2) if int(batch.split("/")[1]) <= 3 else (10, 1)
              for kind in ("orbit_loop", "native_orbit") for batch in BATCHES}}
# How the layers named after a loop force it: the flow constants they set,
# where the checkout has them.
LOOPS = {"orbit_loop": {"_NATIVE_FROM": sys.maxsize},
         "native_orbit": {"_NATIVE_FROM": 0},
         "native_orbit/serial": {"_NATIVE_FROM": 0, "_WORKERS": 1}}


def _timed(fn, runs: int, calls: int) -> list[dict]:
    """Seconds and calibration units per call of fn, from each of runs timed
    runs of calls calls (perfbench's sampler), after one untimed call."""
    fn()
    sampler = calib.Sampler()
    out = []
    for _ in range(runs):
        timing, _ = sampler.measure(lambda: [fn() for _ in range(calls)])
        out.append({"s": timing.net_s / calls, "cal": timing.cal / calls})
    return out


def _counting(compiled, counts: list[int]):
    """compiled, the generator of whole orbit loops, with orbit loops that
    add each run and its own attempts to counts: a run resumed from a
    native row (its fifth argument, whose third entry is the attempts made
    before) adds only those it makes. A run that raises adds the attempts
    its error carries, where the loop attaches them."""
    def counted(V, method):
        orbit = compiled(V, method)

        def run(*args):
            resume = args[4] if len(args) > 4 else None
            before = resume[2] if resume else 0
            counts[0] += 1
            try:
                attempts = orbit(*args)
            except Exception as exc:
                counts[1] += getattr(exc, "attempts", before) - before
                raise
            counts[1] += attempts - before
            return attempts

        return run

    return counted


def _counting_native(native, counts: list[int]):
    """native, the builder of native loops, with runs that add their rows
    and the per-row attempts they return to counts[2] and counts[1]."""
    def counted(V, method):
        run = native(V, method)
        if run is None:
            return None

        def counted_run(*args):
            errors, left, attempts = run(*args)
            counts[1] += int(attempts.sum())
            counts[2] += attempts.size
            return errors, left, attempts

        return counted_run

    return counted


def _queried(cls, run) -> list:
    """The point arrays that run passes to cls.distances, in order."""
    seen, original = [], cls.distances

    def recording(self, points):
        seen.append(numpy.array(points))
        return original(self, points)

    cls.distances = recording
    try:
        run()
    finally:
        cls.distances = original
    return seen


def _reports(cli, runs) -> list:
    """The report that each of runs, an analyze run, hands to the writer:
    the first argument of cli._report_text, or in a checkout older than
    it, of cli._json_safe, through which the report reaches json.dumps."""
    name = "_report_text" if hasattr(cli, "_report_text") else "_json_safe"
    original, reports = getattr(cli, name), []
    for run in runs:
        seen = []
        setattr(cli, name, lambda value, *args: seen.append(value) or original(value, *args))
        try:
            run()
        finally:
            setattr(cli, name, original)
        reports.append(seen[0])
    return reports


def _encode(cli, report) -> str:
    """report as the checkout's analyze encodes it."""
    if hasattr(cli, "_report_text"):
        return cli._report_text(report)
    return json.dumps(cli._json_safe(report), indent=2, sort_keys=True)


def _ignore(rows, j, states):
    """A visit that reads nothing."""


@contextlib.contextmanager
def _forced(flow, **values):
    """flow's constants set to values, where the checkout has them."""
    forced = {name: value for name, value in values.items() if hasattr(flow, name)}
    kept = {name: getattr(flow, name) for name in forced}
    for name, value in forced.items():
        setattr(flow, name, value)
    try:
        yield
    finally:
        for name, value in kept.items():
            setattr(flow, name, value)


def _integrate(flow, loop, V, starts, targets, cfg):
    """integrate_lanes with the loop of LOOPS forced, or at the checkout's
    defaults for None."""
    with _forced(flow, **LOOPS.get(loop, {})):
        flow.integrate_lanes(V, starts, targets, cfg, _ignore)


def _cold_build(flow, V, method):
    """Build the native loop of V and method into a new temporary cache."""
    cache = tempfile.mkdtemp()
    kept = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = cache
    flow._native.cache_clear()
    flow._LIBRARIES.clear()
    try:
        flow._native(V, method)
    finally:
        if kept is None:
            del os.environ["XDG_CACHE_HOME"]
        else:
            os.environ["XDG_CACHE_HOME"] = kept
        shutil.rmtree(cache)


def worker(src: str) -> dict:
    sys.path.insert(0, src)
    import lyapset as ls

    if not ls.__file__.startswith(os.path.join(src, "")):
        sys.exit(f"lyapset was imported from {ls.__file__}, not from {src}")

    flow = importlib.import_module("lyapset.flow")
    cli = importlib.import_module("lyapset.cli")
    geometry = importlib.import_module("lyapset.geometry")
    limits = importlib.import_module("lyapset.limits")
    harmonic = ls.VectorFieldSpec.from_strings(HARMONIC)
    cycle = ls.VectorFieldSpec.from_strings(CYCLE)
    tight = ls.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    problem = ls.load_problem(os.path.join(ROOT, "problems", "harmonic_oscillator.json"))
    block = problem.stability

    def delta():
        ls.estimate_delta(problem.field, problem.set_spec, block["epsilons"][0],
                          problem.integrator, horizon_T=block["horizon"],
                          shell_samples=block["shell_samples"],
                          seed=problem.block_seed("stability"), out_dt=block["out_dt"])

    # The native layers, where the checkout has a native loop and it builds.
    native = hasattr(flow, "_native") and flow._native(harmonic, "rk45_adaptive") is not None

    def orbit_loop(fn):
        def forced():
            with _forced(flow, _NATIVE_FROM=sys.maxsize):
                fn()
        return forced

    layers = {
        "attempt": orbit_loop(lambda: ls.flow(harmonic, [0.3, 0.1], 8.0, tight)),
        "probe_orbit": orbit_loop(lambda: ls.trajectory(harmonic, [0.3, 0.1], 8.0, 0.1, tight)),
        "converse_orbit": lambda: ls.trajectory(
            cycle, [1.0, -0.5, 0.5, 0.2], 10.0, 0.02, ls.IntegratorConfig()),
        "estimate_delta": delta,
    }
    targets = numpy.asarray(ls.sample_times(8.0, 0.1)[1:])
    fields = {"harmonic": (harmonic, tight), "cycle": (cycle, ls.IntegratorConfig())}
    loops = ["orbit_loop"] + (["native_orbit"] if native else [])
    for batch in BATCHES:
        field, m = batch.split("/")
        V, cfg = fields[field]
        starts = numpy.random.default_rng(0).uniform(-1.0, 1.0, (int(m), V.dim))
        for kind in loops:
            layers[f"{kind}/{batch}"] = (
                lambda kind=kind, V=V, starts=starts, cfg=cfg:
                _integrate(flow, kind, V, starts, targets, cfg))
    # roa_grid's nodes, in its order
    axis = numpy.linspace(-3.0, 3.0, 41)
    nodes = numpy.stack([c.reshape(-1) for c in numpy.meshgrid(axis, axis, indexing="ij")], -1)
    vdp = ls.VectorFieldSpec.from_strings(VDP_REVERSED)
    vdp_targets = numpy.asarray(ls.sample_times(20.0, 0.05)[1:])
    vdp_cfg = ls.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
    for name in (["native_orbit"] if native else []) + ["integrate_lanes"]:
        layers[f"{name}/vdp/1681"] = (
            lambda name=name: _integrate(flow, name, vdp, nodes, vdp_targets, vdp_cfg))
    layers["roa_grid/vdp/41"] = lambda: ls.roa_grid(
        vdp, ls.SinglePoint([0.0, 0.0]), ls.Box([-3.0, -3.0], [3.0, 3.0]), 41, vdp_cfg,
        20.0, 1e-3, out_dt=0.05)
    if native:
        layers["native_orbit/vdp/1681/serial"] = lambda: _integrate(
            flow, "native_orbit/serial", vdp, nodes, vdp_targets, vdp_cfg)
        layers["native_build"] = lambda: _cold_build(flow, cycle, "rk45_adaptive")
    # cycle_cloud's omega window, its representatives and their images
    window = ls.trajectory(cycle, ls.flow(cycle, CYCLE_X0, 60.0, ls.IntegratorConfig()), 6.7,
                           0.01, ls.IntegratorConfig()).states
    reps = limits._greedy_cluster(window, 1e-3)
    moved, _ = flow.flow_rows(cycle, reps, 0.01, ls.IntegratorConfig())
    layers["omega/cluster"] = lambda: limits._greedy_cluster(window, 1e-3)
    rng = numpy.random.default_rng(3)
    near, far = rng.uniform(-1.0, 1.0, (4000, 2)), rng.uniform(-1.0, 1.0, (4000, 2)) + 100.0
    for name, (A, B) in zip(HAUSDORFF, [(moved, reps), (near, far)]):
        def hausdorff(A=A, B=B):
            geometry.hausdorff(A, B)

        def numpy_hausdorff(hausdorff=hausdorff):
            with _forced(flow, _nearest_kernel=lambda: None):
                hausdorff()

        layers[name] = hausdorff
        layers[f"{name}/numpy"] = numpy_hausdorff
    # cycle_cloud's pass at seed 0: its cloud, and the points it queries
    cloud = ls.PointCloud(ls.estimate_omega(cycle, CYCLE_X0, ls.IntegratorConfig(),
                                            transient_T=60.0, window_T=6.7).points.points)
    if not CLOUD.endswith(f"/{len(cloud)}"):
        sys.exit(f"cycle_cloud's omega cloud has {len(cloud)} members, not those of {CLOUD}")
    lyapunov = importlib.import_module("lyapset.lyapunov")
    shells = [(ls.SinglePoint([0.0, 0.0]), [0.05] * 10), (ls.ClosedBall([0.0, 0.0], 0.5), [0.3] * 100),
              (cloud, None)]
    for name, (M, radii) in zip(SHELLS, shells):
        def shell(M=M, radii=radii):
            if radii is None:
                lyapunov._annulus_points(M, 0.05, 1.0, 200, numpy.random.default_rng(0))
            else:
                geometry._shell_points(M, radii, numpy.random.default_rng(0))

        def numpy_shell(shell=shell):
            with _forced(flow, _shell_search=lambda: None, _shell_kernel=lambda n: None):
                shell()

        layers[name] = shell
        layers[f"{name}/numpy"] = numpy_shell
    # made once, as the workload makes them
    cycle_starts = numpy.random.default_rng(0).uniform(-3.0, 3.0, (24, 4))
    candidate = ls.ScalarFieldSpec.from_string("x1^2 + x2^2 + x3^2 + x4^2", 4)
    cycle_cfg = ls.IntegratorConfig()
    for name, horizon in ((CONVERSE, 10.0), (CONVERSE_T50, 50.0)):
        layers[name] = lambda cc=ls.ConverseConfig(horizon, 0.02): ls.converse_table(
            cycle, cloud, cycle_starts, cycle_cfg, cc)
    layers[CERTIFICATE] = lambda: ls.verify_certificate(
        cycle, cloud, candidate, 0.05, 1.0, 200, 0, cycle_cfg)
    with _forced(flow, _shell_search=lambda: None, _shell_kernel=lambda n: None):
        queries = _queried(ls.PointCloud, lambda: (layers[CONVERSE](), layers[CERTIFICATE]()))

    def distances():
        for points in queries:
            cloud.distances(points)

    def fallback():
        with _forced(flow, _nearest_kernel=lambda: None):
            distances()

    layers[CLOUD], layers[f"{CLOUD}/numpy"] = distances, fallback
    vanderpol = ls.load_problem(os.path.join(ROOT, "problems", "vanderpol.json"))
    omega = vanderpol.omega
    layers["estimate_omega/vanderpol"] = lambda: ls.estimate_omega(
        vanderpol.field, omega["x0"], vanderpol.integrator, transient_T=omega["transient"],
        window_T=omega["window"], out_dt=omega["out_dt"], cluster_tol=omega["cluster_tol"])
    out_dir = tempfile.mkdtemp()
    for name in PROBLEMS:
        path = os.path.join(ROOT, "problems", f"{name}.json")

        def analyze(path=path):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["analyze", path, "--out-dir", out_dir])

        layers[f"analyze/{name}"] = analyze
    for name, report in zip(PROBLEMS, _reports(cli, [layers[f"analyze/{name}"] for name in PROBLEMS])):
        layers[f"report/{name}"] = lambda report=report: _encode(cli, report)

    result = {"timings": {}, "counts": None, "threaded": {name: False for name in layers}}
    # Scalar orbits, native rows and their attempts, where flow generates
    # whole orbit loops; and the layers that cut a native call into more
    # than one row slice, where flow does.
    if tuple(inspect.signature(flow._compiled).parameters)[:2] == ("V", "method"):
        original, counts = flow._compiled, [0, 0, 0]
        flow._compiled = _counting(original, counts)
        if native:
            original_native = flow._native
            flow._native = _counting_native(original_native, counts)
        original_slices, slices = getattr(flow, "_slices", None), []
        if original_slices:
            flow._slices = lambda *args: slices.append(original_slices(*args)) or slices[-1]
        result["counts"] = {}
        for name, fn in layers.items():
            if name == "native_build":
                continue
            counts[:], slices[:] = [0, 0, 0], []
            fn()
            result["counts"][name] = {"orbits": counts[0], "attempts": counts[1],
                                      "native_rows": counts[2]}
            result["threaded"][name] = max(slices, default=1) > 1
        flow._compiled = original
        if native:
            flow._native = original_native
        if original_slices:
            flow._slices = original_slices
    for name, fn in layers.items():
        result["timings"][name] = _timed(fn, *REPEATS.get(name, (5, 1)))
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    os.rmdir(out_dir)
    return result


def _source(src: str) -> dict:
    """The checkout's git description and the digest of its package files."""
    try:
        described = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src,
                                   capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        described = ""
    digest = hashlib.sha256()
    package = os.path.join(src, "lyapset")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git": described or None, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _summary(runs: list[dict]) -> dict:
    s = [r["s"] for r in runs]
    q1_s, _, q3_s = statistics.quantiles(s, n=4) if len(s) > 1 else s * 3
    return {"k": len(runs), "median_s": statistics.median(s), "q1_s": q1_s, "q3_s": q3_s,
            "min_s": min(s),
            "median_cal": statistics.median(r["cal"] for r in runs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", help="NAME=SRC, the src/ of a checkout")
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(worker(args.worker), sys.stdout)
        return 0
    checkouts = dict(pair.split("=", 1) for pair in args.checkouts)
    if not checkouts:
        parser.error("name at least one NAME=SRC checkout")
    runs: dict[str, list[dict]] = {name: [] for name in checkouts}
    for r in range(args.rounds):
        order = list(checkouts) if r % 2 == 0 else list(reversed(checkouts))
        for name in order:
            src = os.path.abspath(checkouts[name])
            proc = subprocess.run([sys.executable, __file__, "--worker", src],
                                  capture_output=True, text=True, check=True)
            runs[name].append(json.loads(proc.stdout))
            print(f"round {r + 1}: {name} done", file=sys.stderr)
    report = {"environment": environment(), "rounds": args.rounds, "checkouts": {}}
    for name, results in runs.items():
        layers = results[0]["timings"]
        report["checkouts"][name] = {
            "source": _source(os.path.abspath(checkouts[name])),
            "layers": {layer: {
                **_summary([run for res in results for run in res["timings"][layer]]),
                "threaded": results[0]["threaded"][layer]} for layer in layers},
            "counts": results[0]["counts"],
        }
    for entry in report["checkouts"].values():
        layers = entry["layers"]
        if f"native_orbit/{BATCHES[0]}" in layers:
            entry["orbit_over_native"] = {
                batch: layers[f"orbit_loop/{batch}"]["median_s"]
                / layers[f"native_orbit/{batch}"]["median_s"] for batch in BATCHES}
    # Per-attempt times from each checkout's own counts: a checkout that
    # samples orbits by interpolation takes fewer steps than one that ends
    # a step on every sample.
    for entry in report["checkouts"].values():
        if not entry["counts"]:
            continue
        for layer in ("attempt", "probe_orbit", "converse_orbit"):
            stats, attempts = entry["layers"][layer], entry["counts"][layer]["attempts"]
            stats["median_us_per_attempt"] = 1e6 * stats["median_s"] / attempts
            stats["min_us_per_attempt"] = 1e6 * stats["min_s"] / attempts
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
