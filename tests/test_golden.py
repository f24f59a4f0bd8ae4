"""Every golden invocation still exits, writes and reports what
``tests/golden/manifest.json`` records (``golden_manifest`` makes it)."""

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
