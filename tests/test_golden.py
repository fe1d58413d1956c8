"""Byte identity: every run of make_golden.py, recomputed, gives the
digest committed in tests/data/golden_digests.json."""

import json

import pytest

import make_golden


def test_every_digest_matches_the_committed_one():
    record = json.loads(make_golden.GOLDEN.read_text())
    here = make_golden.platform_record()
    for field, made_on in record["platform"].items():
        if here.get(field) != made_on:
            pytest.skip(f"digests were made on another platform: {field} is "
                        f"{here.get(field)!r} here, {made_on!r} there")
    assert record["digests"].keys() == make_golden.CONFIGURATIONS.keys()
    moved = [name for name, expected in record["digests"].items()
             if make_golden.compute(name) != expected]
    assert not moved, f"digests moved: {moved}"
