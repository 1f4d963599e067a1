"""The manifest loader is the one validator of a run manifest.

``RunManifest.from_dict`` rejects a malformed manifest with one
``ConfigurationError`` naming every problem; ``repro check`` reports
that error as its RPR103 finding, and ``repro run --resume`` and
``repro serve --warm`` fail with it instead of a raw ``ValueError``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.runner import RunManifest
from repro.runner.manifest import ExperimentRecord


def valid_payload() -> dict:
    manifest = RunManifest(jobs=2, package_version="1.1.0")
    manifest.records.append(
        ExperimentRecord(
            experiment_id="fig2",
            status="ok",
            duration_s=1.0,
            rows=10,
            result_digest="ab" * 16,
        )
    )
    manifest.records.append(
        ExperimentRecord(
            experiment_id="fig17",
            status="error",
            error="boom",
            failure_kind="crash",
            attempts=2,
        )
    )
    return manifest.to_dict()


def without(key: str) -> dict:
    payload = valid_payload()
    del payload[key]
    return payload


def with_header(**changes) -> dict:
    payload = valid_payload()
    payload.update(changes)
    return payload


def with_record(**changes) -> dict:
    """The valid payload with its failed record (``experiments[1]``) edited."""
    payload = valid_payload()
    payload["experiments"][1].update(changes)
    return payload


def options_not_an_object() -> dict:
    """One finished and one failed record, both with ``options`` a string.

    ``--resume`` reads the failed record's options and ``--warm`` the
    finished one's.
    """
    payload = valid_payload()
    for record in payload["experiments"]:
        record["options"] = "zz"
    return payload


#: Manifests that ``--resume`` and ``--warm`` used to fail on with a raw
#: ``ValueError``: the loader must reject each with a typed error.
MALFORMED_MANIFESTS = [
    pytest.param({"experiments": "ab"}, id="experiments-not-a-list"),
    pytest.param(options_not_an_object(), id="options-not-an-object"),
]

LOADER_CASES = [
    pytest.param(["fig2"], "not a JSON object", id="not-an-object"),
    pytest.param(
        without("manifest_version"), "manifest_version must be", id="no-version"
    ),
    pytest.param(
        with_header(manifest_version=0), "manifest_version must be", id="version-0"
    ),
    pytest.param(
        without("python_version"), "'python_version' missing", id="no-python"
    ),
    pytest.param(with_header(platform=""), "'platform' missing", id="empty-platform"),
    *(
        # header fields the readers compute with, not only display
        pytest.param(
            with_header(**{key: value}),
            f"{key} has the wrong type",
            id=f"{key}-{type(value).__name__}",
        )
        for key, value in (("jobs", "x"), ("scale", "x"), ("cache_dir", 5))
    ),
    pytest.param(
        without("experiments"), "'experiments' must be a list", id="no-experiments"
    ),
    pytest.param(
        {"experiments": "ab"},
        "'experiments' must be a list, got str",
        id="experiments-not-a-list",
    ),
    pytest.param(
        with_header(experiments=["fig2"]),
        r"experiments\[0\] is not an object",
        id="record-not-an-object",
    ),
    pytest.param(
        with_record(experiment_id=""), "missing experiment_id", id="no-id"
    ),
    pytest.param(
        with_record(status="crashed"), "status must be one of", id="bad-status"
    ),
    pytest.param(
        with_record(error=None), "no error message recorded", id="error-no-message"
    ),
    pytest.param(
        with_record(failure_kind="gremlin"),
        "failure_kind must be one of .* got 'gremlin'",
        id="bad-failure-kind",
    ),
    pytest.param(
        # "unavailable" was the retired serving fabric's kind
        with_record(failure_kind="unavailable"),
        "got 'unavailable'",
        id="retired-failure-kind",
    ),
    pytest.param(
        with_record(attempts=0),
        "attempts must be a positive integer",
        id="attempts-0",
    ),
    pytest.param(
        with_record(result_digest="not hex!"),
        "is not a hex digest",
        id="digest-not-hex",
    ),
    pytest.param(
        with_record(rows=-1), "rows must be a non-negative number", id="rows-negative"
    ),
    pytest.param(
        with_record(duration_s="fast"), "duration_s must be", id="duration-string"
    ),
    pytest.param(
        with_record(scale="x"), "scale must be a number", id="record-scale-string"
    ),
    pytest.param(
        with_record(options="zz"), "options must be an object", id="options-string"
    ),
    pytest.param(
        with_record(scenario_spec=[1]),
        "scenario_spec must be an object",
        id="scenario-spec-list",
    ),
]


class TestLoader:
    def test_valid_manifest_round_trips(self):
        payload = valid_payload()
        assert RunManifest.from_dict(payload).to_dict() == payload

    @pytest.mark.parametrize("payload, problem", LOADER_CASES)
    def test_malformed_manifest_is_one_typed_error(self, payload, problem):
        with pytest.raises(ConfigurationError, match=problem) as caught:
            RunManifest.from_dict(payload)
        assert str(caught.value).startswith("malformed run manifest: ")

    def test_one_error_names_every_problem(self):
        payload = with_record(status="crashed", result_digest="not hex!")
        del payload["python_version"]
        with pytest.raises(ConfigurationError) as caught:
            RunManifest.from_dict(payload)
        message = str(caught.value)
        for problem in ("python_version", "status must be", "not a hex digest"):
            assert problem in message
        assert "\n" not in message

    def test_record_is_checked_on_its_own_too(self):
        with pytest.raises(ConfigurationError, match="missing experiment_id"):
            ExperimentRecord.from_dict({"status": "ok"})
        with pytest.raises(ConfigurationError, match="is not an object"):
            ExperimentRecord.from_dict("ab")

    @pytest.mark.parametrize("payload", MALFORMED_MANIFESTS)
    def test_read_of_a_malformed_file_is_a_typed_error(self, payload, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="malformed run manifest"):
            RunManifest.read(path)
