"""Every golden invocation still exits, writes and reports what
``tests/golden/manifest.json`` records (``golden_manifest`` makes it)."""

import copy
import json

import pytest

import golden_manifest

RECORDED = json.loads(golden_manifest.MANIFEST.read_text())


def test_manifest_lists_every_invocation():
    assert {name: entry["args"] for name, entry in RECORDED["invocations"].items()} \
        == golden_manifest.INVOCATIONS


@pytest.mark.parametrize("name", list(golden_manifest.INVOCATIONS))
def test_invocation_matches_manifest(tmp_path, name):
    # output bytes are comparable only on the numeric stack they were
    # recorded on: elsewhere the test fails, it does not skip, and the
    # manifest has to be regenerated there
    assert golden_manifest.environment() == RECORDED["environment"], (
        "environment differs from the manifest's; run tests/golden_manifest.py"
    )
    entry = dict(RECORDED["invocations"][name])
    del entry["args"]
    assert golden_manifest.run(golden_manifest.INVOCATIONS[name], tmp_path) == entry


def test_differences_name_changed_digests_and_moved_numbers():
    entry = {"args": ["simulate"], "exit_code": 0,
             "sha256": {"a.csv": "1", "b.csv": "2"},
             "column_sha256": {"a.csv[t]": "4", "a.csv[D]": "5"},
             "final_populations": {"D": 0.5, "ground": 0.25},
             "agreement": {"max_principal_angle": 1e-16}}
    old = {"environment": {"python": "3"},
           "invocations": {"kept": entry, "dropped": {"sha256": {}}}}
    new = copy.deepcopy(old)
    del new["invocations"]["dropped"]
    kept = new["invocations"]["kept"]
    kept["sha256"]["a.csv"] = "3"
    kept["column_sha256"]["a.csv[D]"] = "6"
    kept["final_populations"]["D"] = 0.75
    kept["agreement"]["max_principal_angle"] = 3e-16
    new["invocations"]["added"] = entry
    assert golden_manifest.differences(old, old) == []
    assert golden_manifest.differences(old, new) == [
        "dropped: removed",
        "kept: digest of a.csv changed",
        "kept: digest of a.csv[D] changed",
        "kept: agreement.max_principal_angle moved by 2e-16",
        "kept: final_populations.D moved by 0.25",
        "added: new",
    ]
