import copy

import pytest

from lyapset.errors import ProblemFormatError
from lyapset.geometry import Box, ClosedBall, PointCloud, SinglePoint
from lyapset.problem import ProblemDefinition, load_problem

from test_geometry import all_variants

FULL_PROBLEM = {
    "dimension": 2,
    "field": ["x2", "-x1"],
    "set": {"type": "point", "coords": [0.0, 0.0]},
    "integrator": {"method": "rk45", "rel_tol": 1e-10},
    "seed": 42,
    "omega": {"x0": [0.6, 0.0], "transient": 5.0},
    "stability": {"epsilons": [0.5, 1.0], "horizon": 8.0, "box": [[-1, -1], [1, 1]]},
    "roa": {"box": [[-2, -2], [2, 2]], "resolution": 11},
    "converse": {"lambda": 1.0, "horizon": 10.0, "samples": 8, "box": [[-1, -1], [1, 1]]},
    "certificate": {"L": "x1^2 + x2^2", "annulus": [0.0, 2.0], "samples": 100},
}


def _expect_pointer(raw, pointer):
    with pytest.raises(ProblemFormatError) as exc_info:
        ProblemDefinition.from_json(raw)
    assert exc_info.value.pointer == pointer
    return exc_info.value


class TestRoundTrip:
    def test_serialize_parse_is_identity(self):
        p1 = ProblemDefinition.from_json(copy.deepcopy(FULL_PROBLEM))
        j1 = p1.to_json()
        p2 = ProblemDefinition.from_json(copy.deepcopy(j1))
        assert p2.to_json() == j1

    def test_canonicalizes_method_alias(self):
        p = ProblemDefinition.from_json(copy.deepcopy(FULL_PROBLEM))
        assert p.integrator.method == "rk45_adaptive"
        assert p.to_json()["integrator"]["method"] == "rk45_adaptive"

    def test_minimal_problem_fills_defaults(self):
        p = ProblemDefinition.from_json(
            {"dimension": 1, "field": ["-x1"], "set": {"type": "point", "coords": [0]}}
        )
        assert p.seed == 0
        assert p.integrator.method == "rk45_adaptive"
        assert p.integrator.rel_tol == 1e-9
        assert p.omega is None and p.stability is None
        assert p.roa is None and p.converse is None and p.certificate is None

    def test_block_defaults_filled(self):
        p = ProblemDefinition.from_json(
            {
                "dimension": 1,
                "field": ["-x1"],
                "set": {"type": "point", "coords": [0]},
                "omega": {"x0": [1.0]},
                "converse": {},
            }
        )
        assert p.omega == {
            "x0": [1.0],
            "transient": 50.0,
            "window": 20.0,
            "out_dt": 0.01,
            "cluster_tol": 1e-3,
        }
        assert p.converse["lambda"] == 1.0
        assert p.converse["quadrature"] == "trapezoid"
        assert "box" not in p.converse


class TestSetVariants:
    def test_point(self):
        p = ProblemDefinition.from_json(
            {"dimension": 2, "field": ["x2", "-x1"], "set": {"type": "point", "coords": [1, 2]}}
        )
        assert isinstance(p.set_spec, SinglePoint)

    def test_ball(self):
        p = ProblemDefinition.from_json(
            {
                "dimension": 2,
                "field": ["x2", "-x1"],
                "set": {"type": "ball", "center": [0, 0], "radius": 1.0},
            }
        )
        assert isinstance(p.set_spec, ClosedBall)
        assert p.set_spec.radius == 1.0

    def test_box(self):
        p = ProblemDefinition.from_json(
            {
                "dimension": 2,
                "field": ["x2", "-x1"],
                "set": {"type": "box", "lo": [-1, -1], "hi": [1, 1]},
            }
        )
        assert isinstance(p.set_spec, Box)

    def test_cloud(self):
        p = ProblemDefinition.from_json(
            {
                "dimension": 2,
                "field": ["x2", "-x1"],
                "set": {"type": "cloud", "points": [[1, 0], [0, 1]]},
            }
        )
        assert isinstance(p.set_spec, PointCloud)

    def test_round_trip_all_variants(self):
        for M in all_variants():
            p = ProblemDefinition.from_json(
                {"dimension": 2, "field": ["x2", "-x1"], "set": M.to_json()}
            )
            assert type(p.set_spec) is type(M)
            assert p.set_spec.to_json() == M.to_json()

    def test_unknown_type_rejected(self):
        with pytest.raises(ProblemFormatError):
            ProblemDefinition.from_json(
                {"dimension": 2, "field": ["x2", "-x1"], "set": {"type": "torus"}}
            )

    def test_unknown_type_pointer(self):
        _expect_pointer(
            {"dimension": 1, "field": ["-x1"], "set": {"type": "sphere", "coords": [0]}},
            "/set/type",
        )

    def test_negative_radius(self):
        _expect_pointer(
            {
                "dimension": 1,
                "field": ["-x1"],
                "set": {"type": "ball", "center": [0], "radius": -1},
            },
            "/set/radius",
        )

    def test_wrong_coord_count(self):
        _expect_pointer(
            {"dimension": 2, "field": ["x2", "-x1"], "set": {"type": "point", "coords": [0]}},
            "/set/coords",
        )


class TestValidationPointers:
    def test_unknown_top_key(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["extra"] = 1
        _expect_pointer(raw, "/extra")

    def test_unknown_block_key(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["omega"]["transcient"] = 1.0
        del raw["omega"]["transient"]
        _expect_pointer(raw, "/omega/transcient")

    def test_missing_dimension(self):
        _expect_pointer({"field": ["-x1"], "set": {"type": "point", "coords": [0]}}, "/dimension")

    def test_missing_set(self):
        _expect_pointer({"dimension": 1, "field": ["-x1"]}, "/set")

    def test_field_not_list(self):
        _expect_pointer({"dimension": 1, "field": "-x1", "set": {}}, "/field")

    def test_field_wrong_arity(self):
        _expect_pointer(
            {"dimension": 2, "field": ["-x1"], "set": {"type": "point", "coords": [0, 0]}},
            "/field",
        )

    def test_field_component_not_string(self):
        _expect_pointer(
            {"dimension": 1, "field": [7], "set": {"type": "point", "coords": [0]}},
            "/field/0",
        )

    def test_field_syntax_error_carries_position(self):
        err = _expect_pointer(
            {"dimension": 1, "field": ["x1 +"], "set": {"type": "point", "coords": [0]}},
            "/field/0",
        )
        assert "position" in str(err)

    def test_bool_is_not_a_number(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["integrator"]["dt"] = True
        err = _expect_pointer(raw, "/integrator/dt")
        assert "bool" in str(err)

    def test_bool_is_not_an_integer_seed(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["seed"] = True
        _expect_pointer(raw, "/seed")

    def test_negative_seed(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["seed"] = -1
        _expect_pointer(raw, "/seed")

    def test_epsilon_entry_type(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["stability"]["epsilons"] = [0.5, True]
        _expect_pointer(raw, "/stability/epsilons/1")

    def test_epsilon_must_be_positive(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["stability"]["epsilons"] = [0.0]
        _expect_pointer(raw, "/stability/epsilons/0")

    def test_bad_integrator_method(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["integrator"]["method"] = "euler"
        _expect_pointer(raw, "/integrator/method")

    def test_roa_box_required(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        del raw["roa"]["box"]
        _expect_pointer(raw, "/roa/box")

    def test_roa_resolution_list_length(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["roa"]["resolution"] = [5]
        _expect_pointer(raw, "/roa/resolution")

    def test_roa_box_inverted_corners(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["roa"]["box"] = [[2, 2], [-2, -2]]
        _expect_pointer(raw, "/roa/box")

    def test_certificate_annulus_ordering(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["certificate"]["annulus"] = [2.0, 1.0]
        _expect_pointer(raw, "/certificate/annulus")

    def test_certificate_expression_checked(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["certificate"]["L"] = "x3^2"
        _expect_pointer(raw, "/certificate/L")

    def test_converse_quadrature_name(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["converse"]["quadrature"] = "midpoint"
        _expect_pointer(raw, "/converse/quadrature")

    def test_omega_x0_required(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        del raw["omega"]["x0"]
        _expect_pointer(raw, "/omega/x0")

    def test_top_level_must_be_object(self):
        _expect_pointer([1, 2, 3], "")


class TestBlockSeeds:
    def test_stable_and_distinct(self):
        p = ProblemDefinition.from_json(copy.deepcopy(FULL_PROBLEM))
        seeds = {name: p.block_seed(name) for name in ("omega", "stability", "roa", "converse", "certificate")}
        assert len(set(seeds.values())) == 5
        q = ProblemDefinition.from_json(copy.deepcopy(FULL_PROBLEM))
        assert {name: q.block_seed(name) for name in seeds} == seeds

    def test_depends_only_on_seed_and_name(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        del raw["roa"]
        p = ProblemDefinition.from_json(raw)
        q = ProblemDefinition.from_json(copy.deepcopy(FULL_PROBLEM))
        assert p.block_seed("omega") == q.block_seed("omega")


class TestLoadProblem:
    def test_loads_valid_file(self, tmp_path):
        import json

        path = tmp_path / "p.json"
        path.write_text(json.dumps(FULL_PROBLEM))
        p = load_problem(str(path))
        assert p.dimension == 2

    def test_malformed_json_reports_byte_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 2, "field": [}')
        with pytest.raises(ProblemFormatError) as exc_info:
            load_problem(str(path))
        assert "byte offset 27" in str(exc_info.value)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(str(tmp_path / "nope.json"))
