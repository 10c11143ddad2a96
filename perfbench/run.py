"""lyapset benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 a run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it reports the per-layer metrics, from a traced pass next
to untraced ones. `--workload all` (the default) runs every workload both
ways. Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 1 when a correctness check fails.

Full run records (environment, raw wall and calibration seconds of every
pass) go to .perfbench_out/ in the checkout, the spans of traced passes
too.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import source

source.use_checkout_source()
import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(source.ROOT, ".perfbench_out")
WORK_DIR = os.path.join(source.ROOT, ".perfbench_work")
SETUP_LAUNCHES = 4  # before the passes, and as many after
SETUP_GAP_S = 0.2
TRACED_SHARE_OF_RUN = 0.6  # of --seconds, in a --trace 1 run


def load_spec() -> dict:
    with open(os.path.join(source.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(values):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it,
    as (p, value), or None when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[min(n - 1, int(n * p / 100.0))]
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=source.ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    package = os.path.join(source.SRC, "lyapset")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def measure_setup(name: str, work: str, seed: int, launches: int) -> list[float]:
    """Seconds from starting a fresh interpreter until the workload is ready.

    Host speed stays put for a second or two, so launches are spaced out,
    and run.py makes half of them before the passes and half after."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    argv = [sys.executable, probe, name, work, str(seed)]
    # Imports come from cached bytecode, as after an install, whatever the
    # caller's environment says; the cache stays inside the checkout.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT_DIR, "pycache")
    samples = []
    for _ in range(launches):
        time.sleep(SETUP_GAP_S)
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=source.ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


class Run:
    """One workload, one seed: passes, checks and the run record."""

    def __init__(self, name: str, seed: int, work: str):
        references = workloads.load_references()
        self.workload = workloads.WORKLOADS[name](source.ROOT, work, seed, references)
        self.name, self.seed = name, seed
        self.sampler = calib.Sampler()
        self.passes: list[dict] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._digest = None

    def _account(self, outcome: workloads.Outcome, kind: str, timing: calib.Timing):
        if self._digest is None:
            self._digest = outcome.digest
        elif outcome.digest != self._digest:
            # A repeated pass must write byte-identical outputs.
            outcome.failed = outcome.attempted
            outcome.problems.append("outputs differ from the first pass of this run")
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        self.passes.append({"kind": kind, **timing.to_json(),
                            "attempted": outcome.attempted, "failed": outcome.failed})

    def untraced(self, budget_s: float) -> list[float]:
        """Timed passes until the next one would overrun budget_s; at least one."""
        start = time.perf_counter()
        walls: list[float] = []
        while True:
            timing, output = self.sampler.measure(self.workload.run)
            self._account(self.workload.check(output), "untraced", timing)
            walls.append(timing.wall_s)
            if time.perf_counter() - start + statistics.median(walls) > budget_s:
                return [p["wall_cal"] for p in self.passes if p["kind"] == "untraced"]

    def traced(self, budget_s: float) -> list[dict]:
        """Traced passes until the next one would overrun budget_s; at least one."""
        start = time.perf_counter()
        walls: list[float] = []
        layers = []
        while True:
            tr = tracer.Tracer()
            tr.install()
            self.sampler.on_sample = tr.calibration_span
            try:
                timing, (output, root_net) = self.sampler.measure(
                    lambda: tr.run_root(self.workload.run))
            finally:
                self.sampler.on_sample = None
                tr.uninstall()
            outcome = self.workload.check(output)
            self._account(outcome, "traced", timing)
            layers.append(layer_metrics(tr, timing, root_net, outcome))
            if len(layers) == 1:
                tr.write_spans(os.path.join(OUT_DIR, f"{self.name}-seed{self.seed}.spans.json.gz"))
            walls.append(timing.wall_s)
            if time.perf_counter() - start + statistics.median(walls) > budget_s:
                return layers


def layer_metrics(tr: tracer.Tracer, timing: calib.Timing, root_net: float,
                  outcome: workloads.Outcome) -> dict:
    """Per-layer counts (exact) and times of one traced pass."""
    counts = tr.layer_counts()
    out = dict(counts)
    out["cli.report_bytes"] = outcome.report_bytes
    out["render.svg_bytes"] = outcome.svg_bytes
    times = {
        "expr.compile_s": tr.compile_s,
        "trace.wall_cal": timing.cal,
    }
    for layer in tracer.LAYERS:
        key = "problem.load_share" if layer == "problem" else f"{layer}.self_share"
        times[key] = tr.self_s.get(layer, 0.0) / root_net
    orbit_s = tr.orbit_net_s
    times["flow.orbit_p50_cal"] = statistics.median(orbit_s) / timing.loop_s if orbit_s else 0.0
    tail = tail_percentile(orbit_s)
    times["flow.orbit_tail_cal"] = tail[1] / timing.loop_s if tail else 0.0
    times["flow.orbit_tail_percentile"] = tail[0] if tail else None
    return {"counts": out, "times": times}


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        run = Run(name, seed, work)
        metrics, record = {}, {}
        if not trace:
            measure_setup(name, work, seed, 1)  # writes bytecode caches; not a sample
            setup = measure_setup(name, work, seed, SETUP_LAUNCHES)
        run.workload.ready()
        run.workload.warm(work)
        if not trace:
            cals = run.untraced(seconds)
            tail = tail_percentile(cals)
            record["wall_cal"] = {
                "median": statistics.median(cals), "n": len(cals),
                "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
            }
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup += measure_setup(name, work, seed, SETUP_LAUNCHES)
            metrics["wall_cal"] = statistics.median(cals)
            metrics["setup_s"] = statistics.median(setup)
            record["setup_s_samples"] = setup
        else:
            cals = run.untraced((1.0 - TRACED_SHARE_OF_RUN) * seconds)
            layers = run.traced(TRACED_SHARE_OF_RUN * seconds)
            first = layers[0]["counts"]
            for other in layers[1:]:
                if other["counts"] != first:
                    run.failed += 1
                    run.problems.append("per-layer counts differ between traced passes")
            metrics.update(first)
            for key in layers[0]["times"]:
                values = [lay["times"][key] for lay in layers if lay["times"][key] is not None]
                metrics[key] = statistics.median(values) if values else None
            traced_cal = metrics.pop("trace.wall_cal")
            metrics["trace.overhead"] = traced_cal / statistics.median(cals) - 1.0
            record["traced_passes"] = layers
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    reported = {}
    for m in wanted:
        if metrics.get(m["name"]) is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        reported[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    record.update({
        "workload": name, "trace": int(trace), "run_seconds": seconds,
        "environment": environment(seed),
        "calibration_loop_s": statistics.median(p["loop_s"] for p in run.passes),
        "passes": run.passes,
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "problems": run.problems[:50],
        "all_metrics": metrics,
        "metrics": reported,
    })
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = path
    return record


def print_record(record: dict):
    print(f"== {record['workload']} seed={record['environment']['seed']} trace={record['trace']}")
    for name, m in record["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else format(m["value"], ".6g")
        print(f"  {name:32s} {value} {m['unit']}")
    if "wall_cal" in record and record["wall_cal"]["tail"]:
        tail = record["wall_cal"]["tail"]
        print(f"  {'wall_cal p' + format(tail['p'], 'g'):32s} {tail['value']:.6g} cal")
    if "wall_cal" in record:
        print(f"  {'wall_cal samples':32s} {record['wall_cal']['n']} passes")
    print(f"  {'calibration loop':32s} {record['calibration_loop_s']:.6g} s")
    raw = [p["wall_s"] for p in record["passes"] if p["kind"] == "untraced"]
    print(f"  {'raw wall per pass (median)':32s} {statistics.median(raw):.6g} s")
    print(f"  {'failed / attempted':32s} {record['failed']} / {record['attempted']}"
          f" = {record['failed_frac']:.6g} ratio")
    for problem in record["problems"][:10]:
        print(f"  FAILED: {problem}")
    print(f"  record: {os.path.relpath(record['path'], source.ROOT)}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 for one workload, both for all")
    args = parser.parse_args(argv)

    if args.workload == "all":
        jobs = [(n, t) for n in names for t in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        jobs = [(args.workload, args.trace or 0)]
    records = []
    for name, trace in jobs:
        record = run_one(name, args.seed, args.seconds, bool(trace), spec)
        print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
