"""CLI output stays byte-identical: every argv frozen in tests/cli_golden.json
by tests/gen_cli_golden.py gives the same exit code and the same sha256 of
stdout and of stderr when replayed through cli.main in-process."""

import json

from gen_cli_golden import FIXTURE, pinned_environment, run


def test_cli_output_matches_the_golden_digests():
    expected = json.loads(FIXTURE.read_text())
    assert len(expected) >= 100
    with pinned_environment():
        mismatches = [
            record["argv"] for record in expected if run(record["argv"]) != record
        ]
    assert mismatches == []
