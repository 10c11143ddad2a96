"""Shared fixtures: standard test fields, integrator configs, and the
frozen Van der Pol limit-cycle oracles.

The Van der Pol constants below were measured once with this package's
own integrator at rel_tol=1e-12 via a Poincare return map on the section
x2=0, x1>0: settle 300 time units from (2,0), then bisect two successive
section crossings to 1e-14. The period agrees with the published value
6.6632868593231 for the unit damping parameter to 3e-12, and one full
period from the crossing state returns to it within 5e-13.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest

from lyapset.expr import VectorFieldSpec
from lyapset.flow import IntegratorConfig, _compiled, sample_times, trajectory
from lyapset.geometry import PointCloud

VDP_PERIOD = 6.663286859322498
VDP_CYCLE_POINT = (2.008619860874465, 0.0)

TWO_PI = 2.0 * math.pi
# Output step that tiles the oscillator period exactly, so an estimated
# omega set maps onto itself under a one-step flow probe.
OSC_ALIGNED_DT = TWO_PI / 628.0

def native(on: bool):
    """Context in which integrate_lanes runs the native loop on every call
    (on), where it can be built, or never."""
    return mock.patch.object(importlib.import_module("lyapset.flow"), "_NATIVE_FROM",
                             0 if on else sys.maxsize)


def sliced(workers: int | None):
    """Context in which every native run cuts its rows into min(workers,
    rows) slices, each on a thread of its own from 2 slices on; None for
    the cores, as a large run does."""
    flow = importlib.import_module("lyapset.flow")
    return mock.patch.multiple(flow, _PARALLEL_FROM=0, _WORKERS=workers)


def native_builds(V, method: str = "rk45_adaptive") -> bool:
    """Whether the native loop of V and method builds and loads here."""
    return importlib.import_module("lyapset.flow")._native(V, method) is not None


def pytest_addoption(parser):
    parser.addoption("--native", choices=("auto", "always"), default="auto",
                     help="always: run every integration through the native loop, in row slices "
                          "on at least two threads, where a test does not pin it; auto: once a "
                          "field has done enough work, and on threads from a large run on, as a "
                          "run does")


@pytest.fixture(scope="session", autouse=True)
def _native_cache(request, tmp_path_factory):
    """Native builds go to pytest's cache, not the user's, and are kept
    from one session to the next; to a directory of the session's own
    where the cache provider is off. A build is keyed by its source, flags
    and compiler, so a stale one never loads; a test that needs a cold or
    failing build gives it a cache of its own. With --native=always every
    field runs natively, each run in at least two row slices on threads of
    their own."""
    provider = getattr(request.config, "cache", None)
    cache = (provider.mkdir("lyapset-native") if provider is not None
             else tmp_path_factory.mktemp("cache"))
    with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(cache)):
        if request.config.getoption("--native") == "always":
            with native(True), sliced(max(2, os.cpu_count() or 1)):
                yield
        else:
            yield


def count_generators(monkeypatch) -> list:
    """Record each np.random.default_rng construction from here on; returns
    the list of their arguments."""
    made = []
    construct = np.random.default_rng

    def counted(*args, **kwargs):
        made.append(args)
        return construct(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return made


def orbit_attempts(texts, start, T: float, out_dt: float, **options) -> int:
    """The step attempts of the generated orbit loop on the field texts from
    start through sample_times(T, out_dt), under IntegratorConfig(**options).
    A test that needs a step budget to run out partway sets it below this
    count, so the budget follows the integrator instead of pinning it."""
    cfg = IntegratorConfig(**options)
    V = VectorFieldSpec.from_strings(texts)
    return _compiled(V, cfg.method)(list(start), sample_times(T, out_dt)[1:], cfg, [])


@pytest.fixture(scope="session")
def sink1() -> VectorFieldSpec:
    return VectorFieldSpec.from_strings(["-x1"])


@pytest.fixture(scope="session")
def sink2() -> VectorFieldSpec:
    return VectorFieldSpec.from_strings(["-x1", "-x2"])


@pytest.fixture(scope="session")
def rot_sink() -> VectorFieldSpec:
    return VectorFieldSpec.from_strings(["-x1 + x2", "-x1 - x2"])


@pytest.fixture(scope="session")
def osc() -> VectorFieldSpec:
    return VectorFieldSpec.from_strings(["x2", "-x1"])


@pytest.fixture(scope="session")
def grow1() -> VectorFieldSpec:
    return VectorFieldSpec.from_strings(["x1"])


@pytest.fixture(scope="session")
def pitchfork() -> VectorFieldSpec:
    return VectorFieldSpec.from_strings(["x1 - x1^3"])


@pytest.fixture(scope="session")
def vdp() -> VectorFieldSpec:
    return VectorFieldSpec.from_strings(["x2", "(1 - x1^2)*x2 - x1"])


@pytest.fixture(scope="session")
def cfg() -> IntegratorConfig:
    return IntegratorConfig()


@pytest.fixture(scope="session")
def cfg_tight() -> IntegratorConfig:
    return IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)


@pytest.fixture(scope="session")
def cfg_coarse() -> IntegratorConfig:
    return IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10)


def circle_cloud(count: int, radius: float = 1.0) -> PointCloud:
    angles = np.linspace(0.0, TWO_PI, count, endpoint=False)
    return PointCloud(
        np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    )


@pytest.fixture(scope="session")
def unit_circle_720() -> PointCloud:
    return circle_cloud(720)


@pytest.fixture(scope="session")
def vdp_cycle_cloud(vdp) -> PointCloud:
    """Dense equal-arc sampling of the Van der Pol limit cycle.

    Max member gap 1.5e-3, so distance-to-cloud overshoots distance to
    the true cycle by at most half that, below the 1e-3 tolerances the
    converse-construction suites use.
    """
    dense = trajectory(
        vdp,
        VDP_CYCLE_POINT,
        VDP_PERIOD,
        VDP_PERIOD / 20000,
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13),
    )
    pts = dense.states
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    count = int(np.ceil(s[-1] / 1.5e-3))
    targets = np.linspace(0.0, s[-1], count, endpoint=False)
    return PointCloud(
        np.stack(
            [np.interp(targets, s, pts[:, 0]), np.interp(targets, s, pts[:, 1])],
            axis=1,
        )
    )
