import copy
from dataclasses import fields

import pytest

from lyapset.errors import ProblemFormatError
from lyapset.expr import MAX_DEPTH
from lyapset.flow import IntegratorConfig
from lyapset.geometry import Box, ClosedBall, PointCloud, SinglePoint
from lyapset.problem import _SECTIONS, MAX_STARTS, ProblemDefinition, load_problem

from test_expr import deep_text
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

    def test_empty_integrator_is_default_config(self):
        p = ProblemDefinition.from_json(
            {"dimension": 1, "field": ["-x1"], "set": {"type": "point", "coords": [0]},
             "integrator": {}}
        )
        assert p.integrator == IntegratorConfig()

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
        for method in ("euler", ["rk45"]):  # a list is not a key of the alias table
            raw = copy.deepcopy(FULL_PROBLEM)
            raw["integrator"]["method"] = method
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

    @pytest.mark.parametrize("shape", ["calls", "sum", "parentheses"])
    def test_expression_too_deep(self, shape):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["field"][1] = deep_text(shape, MAX_DEPTH)
        raw["certificate"]["L"] = deep_text(shape, MAX_DEPTH)
        ProblemDefinition.from_json(raw)
        raw["certificate"]["L"] = deep_text(shape, MAX_DEPTH + 1)
        err = _expect_pointer(raw, "/certificate/L")
        assert err.message.endswith(")") and err.message.count("position") == 1
        raw["field"][1] = deep_text(shape, MAX_DEPTH + 1)
        _expect_pointer(raw, "/field/1")

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

    # One case per rule that ties two keys together: out_dt may not exceed
    # the span a block's orbits are sampled over, and Simpson's rule needs
    # an even number of intervals.
    @pytest.mark.parametrize(
        "block, keys, pointer",
        [
            ("omega", {"window": 0.5, "out_dt": 0.6}, "/omega/out_dt"),
            ("stability", {"horizon": 8.0, "out_dt": 8.5}, "/stability/out_dt"),
            ("roa", {"horizon": 1.0, "out_dt": 2.0}, "/roa/out_dt"),
            ("converse", {"horizon": 0.1, "out_dt": 0.25}, "/converse/out_dt"),
            ("converse", {"horizon": 0.9, "out_dt": 0.3, "quadrature": "simpson"},
             "/converse/quadrature"),
            # More than MAX_SAMPLES samples; the grid is never built.
            ("omega", {"window": 1.0, "out_dt": 1e-300}, "/omega/out_dt"),
            ("stability", {"horizon": 8.0, "out_dt": 1e-7}, "/stability/out_dt"),
            ("roa", {"horizon": 20.0, "out_dt": 1e-6}, "/roa/out_dt"),
            ("converse", {"horizon": 10.0, "out_dt": 5e-324}, "/converse/out_dt"),
        ],
    )
    def test_sampling_rule(self, block, keys, pointer):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw[block].update(keys)
        _expect_pointer(raw, pointer)

    def test_integrator_null_means_defaults(self):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw["integrator"] = None
        assert ProblemDefinition.from_json(raw).integrator == IntegratorConfig()
        for bad in (0, False, [], "rk45"):
            raw["integrator"] = bad
            _expect_pointer(raw, "/integrator")


class TestStartBound:
    # Each integer key a block makes starts from, at the largest value
    # that loads and at the next; a 2-D grid of r nodes per axis has r^2
    # nodes, and one delta probe starts s shell and ceil(s / 4) inner
    # points. Loading builds nothing, so none of these allocates.
    @pytest.mark.parametrize(
        "block, key, largest, above",
        [
            ("roa", "resolution", 1000, 1001),
            ("roa", "resolution", [1000, 1000], [1000, 1001]),
            ("stability", "resolution", 1000, 1001),
            ("stability", "shell_samples", 800_000, 800_001),
            ("converse", "samples", MAX_STARTS, MAX_STARTS + 1),
            ("certificate", "samples", MAX_STARTS, MAX_STARTS + 1),
        ],
    )
    def test_bound_at_load(self, block, key, largest, above):
        raw = copy.deepcopy(FULL_PROBLEM)
        raw[block][key] = largest
        assert getattr(ProblemDefinition.from_json(raw), block)[key] == largest
        for value in (above, 10**400):
            raw[block][key] = value
            exc = _expect_pointer(raw, f"/{block}/{key}")
            assert f"more than {MAX_STARTS} starts" in str(exc)

    # The default resolutions are bounded too: 9 nodes per axis stays
    # within the bound up to six dimensions, 11 up to five.
    @pytest.mark.parametrize(
        "block, keys, largest_n",
        [
            ("stability", lambda n: {"epsilons": [0.5]}, 6),
            ("roa", lambda n: {"box": [[-1] * n, [1] * n]}, 5),
        ],
    )
    def test_default_resolution_bounded(self, block, keys, largest_n):
        def raw(n):
            return {"dimension": n, "field": ["0"] * n,
                    "set": {"type": "point", "coords": [0] * n}, block: keys(n)}

        ProblemDefinition.from_json(raw(largest_n))
        _expect_pointer(raw(largest_n + 1), f"/{block}/resolution")


class TestSectionTable:
    def test_integrator_keys_are_the_config_fields(self):
        parsers, _ = _SECTIONS["integrator"]
        assert set(parsers) == {f.name for f in fields(IntegratorConfig)}


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
        path.write_bytes('{"field": ["\u00e9", ]}'.encode("utf-8"))  # é is two bytes
        with pytest.raises(ProblemFormatError) as exc_info:
            load_problem(str(path))
        assert "byte offset 17" in str(exc_info.value)

    def test_overlong_integer_is_format_error(self, tmp_path):
        # Python 3.11+ refuses to convert an int literal this long; earlier
        # versions parse it, and it then fails as a number beyond floats.
        path = tmp_path / "long.json"
        path.write_text('{"dimension": 1, "field": ["-x1"], "set": {"type": "point", '
                        '"coords": [1' + "0" * 5000 + "]}}")
        with pytest.raises(ProblemFormatError) as exc_info:
            load_problem(str(path))
        assert exc_info.value.pointer in ("", "/set/coords/0")

    @pytest.mark.parametrize("data, message", [
        (b'{"dimension": 1, \xff}', "not UTF-8 text at byte offset 17"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    ])
    def test_unreadable_bytes_fail_at_the_root(self, tmp_path, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ProblemFormatError) as exc_info:
            load_problem(str(path))
        assert (exc_info.value.pointer, exc_info.value.message) == ("", message)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(str(tmp_path / "nope.json"))
