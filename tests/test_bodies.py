"""Every output of tools/cli_bodies.py against the digests in its manifest.

The bits of a body depend on the host's numpy build and SIMD level, so
the digests decide only on the fingerprint they were made under; on
another host the test is skipped and names both fingerprints.
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_bodies.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_bodies", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_manifest(tmp_path):
    tool = _tool()
    pinned = json.loads(tool.MANIFEST.read_text(encoding="utf-8"))
    here = tool.fingerprint()
    if here != pinned["fingerprint"]:
        pytest.skip("the manifest was made on %s, this host is %s" % (pinned["fingerprint"], here))
    tool.main([str(tmp_path)])
    assert tool.digests(tmp_path) == pinned["sha256"]
