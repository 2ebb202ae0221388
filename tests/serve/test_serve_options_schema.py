"""The versioned POST /sql schema: every per-query knob lives in the
nested "options" object; the top level holds only sql, trace, options."""

import json

from repro import QueryOptions

from tests.serve.test_serve_hardening import (
    StubEngine,
    StubResult,
    request,
    running_server,
)


def _capture_engine(seen):
    async def capture(sql_text, **kwargs):
        seen.update(kwargs)
        return StubResult([])

    return StubEngine(capture)


def test_nested_options_reach_the_engine_as_a_query_options() -> None:
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        response, payload = request(
            server,
            "POST",
            "/sql",
            {
                "sql": "Select 1",
                "options": {
                    "mode": "parallel",
                    "fanouts": [3, 2],
                    "retries": 2,
                    "limit_pushdown": False,
                    "tenant": "analytics",
                },
            },
        )
        assert response.status == 200, payload
    options = seen["options"]
    assert isinstance(options, QueryOptions)
    assert options.mode == "parallel"
    assert options.fanouts == [3, 2]
    assert options.retries == 2
    assert options.limit_pushdown is False
    assert options.tenant == "analytics"


def test_top_level_option_fields_are_400s_naming_the_field() -> None:
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        for field, value in (("mode", "adaptive"), ("fanouts", [5, 4]), ("retries", 1)):
            response, payload = request(
                server, "POST", "/sql", {"sql": "Select 1", field: value}
            )
            assert response.status == 400, payload
            error = json.loads(payload)["error"]
            assert "unknown request fields" in error and repr(field) in error
    assert seen == {}


def test_unknown_options_field_is_a_400() -> None:
    with running_server(_capture_engine({})) as server:
        response, payload = request(
            server,
            "POST",
            "/sql",
            {"sql": "Select 1", "options": {"fanout_vector": [1]}},
        )
        assert response.status == 400
        assert "fanout_vector" in json.loads(payload)["error"]


def test_options_must_be_an_object() -> None:
    with running_server(_capture_engine({})) as server:
        response, _ = request(
            server, "POST", "/sql", {"sql": "Select 1", "options": [1, 2]}
        )
        assert response.status == 400


def test_limit_pushdown_must_be_boolean() -> None:
    with running_server(_capture_engine({})) as server:
        response, _ = request(
            server,
            "POST",
            "/sql",
            {"sql": "Select 1", "options": {"limit_pushdown": "yes"}},
        )
        assert response.status == 400


def test_adaptation_dict_is_decoded() -> None:
    seen = {}
    with running_server(_capture_engine(seen)) as server:
        response, payload = request(
            server,
            "POST",
            "/sql",
            {
                "sql": "Select 1",
                "options": {"mode": "adaptive", "adaptation": {"p": 3}},
            },
        )
        assert response.status == 200, payload
    assert seen["options"].adaptation.p == 3


def test_bad_adaptation_field_is_a_400() -> None:
    with running_server(_capture_engine({})) as server:
        for adaptation in ({"nope": 1}, "fast", 7):
            response, _ = request(
                server,
                "POST",
                "/sql",
                {"sql": "Select 1", "options": {"adaptation": adaptation}},
            )
            assert response.status == 400, adaptation


def test_validation_applies_to_nested_fields_too() -> None:
    with running_server(_capture_engine({})) as server:
        for options in (
            {"tenant": "  "},
            {"deadline_ms": -1},
            {"optimize": "magic"},
            {"cache": "yes"},
        ):
            response, _ = request(
                server, "POST", "/sql", {"sql": "Select 1", "options": options}
            )
            assert response.status == 400, options
