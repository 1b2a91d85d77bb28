"""The versioned serve wire protocol: round-tripping, strictness, documents."""

from __future__ import annotations

import json

import pytest

from repro.serve.protocol import (
    SCHEMA_VERSION,
    ServeError,
    ServeRequest,
    ServeResponse,
    load_requests_document,
    parse_requests_document,
)


class TestServeRequest:
    def test_round_trips_through_json(self):
        request = ServeRequest(
            target_specs={"gain": 350.0, "power": 4e-3},
            env_id="opamp-p2s-v0",
            max_steps=40,
            deadline_ms=12.5,
            request_id="req-7",
        )
        clone = ServeRequest.from_json(request.to_json())
        assert clone == request
        assert clone.to_json() == request.to_json()

    def test_optionals_are_omitted_when_unset(self):
        document = ServeRequest(target_specs={"gain": 1.0}).to_dict()
        assert document == {"schema_version": 1, "target_specs": {"gain": 1.0}}

    def test_unknown_field_error_lists_known_fields(self):
        with pytest.raises(ValueError, match=r"unknown request field\(s\) \['bogus'\]"):
            ServeRequest.from_dict({"target_specs": {"gain": 1.0}, "bogus": 1})
        with pytest.raises(ValueError, match="target_specs"):
            ServeRequest.from_dict({"target_specs": {"gain": 1.0}, "bogus": 1})

    def test_future_schema_version_names_the_supported_one(self):
        with pytest.raises(ValueError, match=f"speaks version {SCHEMA_VERSION}"):
            ServeRequest.from_dict({"schema_version": 99, "target_specs": {"gain": 1.0}})

    @pytest.mark.parametrize(
        "data,match",
        [
            ({}, "target_specs"),
            ({"target_specs": {}}, "non-empty"),
            ({"target_specs": {"gain": "high"}}, "non-numeric"),
            ({"target_specs": {"gain": 1.0}, "max_steps": 0}, "max_steps"),
            ({"target_specs": {"gain": 1.0}, "deadline_ms": -1}, "deadline_ms"),
            (42, "must be an object"),
        ],
    )
    def test_bad_requests(self, data, match):
        with pytest.raises(ValueError, match=match):
            ServeRequest.from_dict(data)

    def test_invalid_json_line(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            ServeRequest.from_json("{nope")


class TestServeResponse:
    def make_response(self, **overrides):
        fields = dict(
            env_id="opamp-p2s-v0",
            target_specs={"gain": 350.0},
            success=True,
            steps=7,
            final_specs={"gain": 361.0},
            final_parameters={"w1": 2e-6},
            met={"gain": True},
            index=3,
            request_id="req-7",
            timing={"serve_ms": 4.2, "total_ms": 9.1},
            tier={"surrogate_hits": 2},
        )
        fields.update(overrides)
        return ServeResponse(**fields)

    def test_round_trips_through_json(self):
        response = self.make_response()
        clone = ServeResponse.from_json(response.to_json())
        assert clone.to_json() == response.to_json()
        assert clone.met == {"gain": True}
        assert clone.request_id == "req-7"

    def test_error_round_trips_and_ok_flag(self):
        response = self.make_response(
            success=False, error=ServeError(code="timeout", message="budget expired")
        )
        assert not response.ok
        clone = ServeResponse.from_json(response.to_json())
        assert clone.error is not None
        assert (clone.error.code, clone.error.message) == ("timeout", "budget expired")
        assert self.make_response().ok

    def test_result_never_serializes(self):
        response = self.make_response()
        response.result = object()  # stands in for a DeploymentResult
        assert "result" not in response.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match=r"unknown response field\(s\)"):
            ServeResponse.from_dict({"env_id": "x", "surprise": 1})

    def test_failure_constructor_echoes_request(self):
        request = ServeRequest(
            target_specs={"gain": 1.0}, env_id="opamp-p2s-v0", request_id="r1"
        )
        response = ServeResponse.failure(request, "unroutable", "no such env")
        assert not response.ok and not response.success
        assert response.env_id == "opamp-p2s-v0"
        assert response.request_id == "r1"
        assert response.target_specs == {"gain": 1.0}
        anonymous = ServeResponse.failure(None, "bad_request", "unparseable line")
        assert anonymous.error.code == "bad_request"
        assert anonymous.target_specs == {}


class TestV1Documents:
    def test_requests_document_with_defaults(self):
        requests = parse_requests_document(
            {
                "schema_version": 1,
                "env_id": "opamp-p2s-v0",
                "max_steps": 60,
                "requests": [
                    {"target_specs": {"gain": 350.0}},
                    {"target_specs": {"gain": 400.0}, "max_steps": 30,
                     "env_id": "opamp-v0"},
                ],
            }
        )
        assert [r.env_id for r in requests] == ["opamp-p2s-v0", "opamp-v0"]
        assert [r.max_steps for r in requests] == [60, 30]

    def test_entry_errors_name_the_request(self):
        with pytest.raises(ValueError, match="request #1"):
            parse_requests_document(
                {"requests": [{"target_specs": {"gain": 1.0}}, {"target_specs": {}}]}
            )

    @pytest.mark.parametrize(
        "document,match",
        [
            ({"requests": []}, "no requests"),
            ({"requests": "nope"}, "list of request objects"),
            ({"requests": [{"target_specs": {"g": 1.0}}], "bogus": 1},
             "unknown request document"),
            ({"requests": [{"target_specs": {"g": 1.0}}], "schema_version": 2},
             "schema_version 2"),
        ],
    )
    def test_bad_documents(self, document, match):
        with pytest.raises(ValueError, match=match):
            parse_requests_document(document)

    def test_load_requests_document(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "requests": [{"target_specs": {"gain": 350.0}, "request_id": "a"}],
        }))
        requests = load_requests_document(path)
        assert len(requests) == 1 and requests[0].request_id == "a"

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_requests_document(path)


class TestLegacyDocuments:
    @pytest.mark.parametrize(
        "document",
        [
            {"targets": [{"gain": 1.0}]},
            {"env": "opamp-p2s-v0", "targets": [{"specs": {"gain": 1.0}}]},
            [{"gain": 1.0}],
            "not a document",
        ],
    )
    def test_pre_v1_shapes_are_rejected_with_the_v1_shape(self, document):
        with pytest.raises(ValueError, match=r'\{"schema_version": 1, "requests": \['):
            parse_requests_document(document)

    def test_missing_target_specs_shows_the_request_shape(self):
        with pytest.raises(ValueError, match=r'\{"target_specs": \{'):
            ServeRequest.from_dict({"env_id": "opamp-p2s-v0"})
