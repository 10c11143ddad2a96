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

# integrate_lanes runs the lane batch from _LANES_FROM starts up and one
# orbit loop per start below; these values of it force either loop.
LANES, ORBITS = 1, sys.maxsize


def lanes_from(count: int):
    """Context in which integrate_lanes' _LANES_FROM is count."""
    return mock.patch.object(importlib.import_module("lyapset.flow"), "_LANES_FROM", count)


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
