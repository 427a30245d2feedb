"""Byte-exact CLI transcripts: stdout, stderr and exit status per command.

The expected transcripts in ``tests/data/golden_cli.json`` were recorded
before the hypergraph became array-backed, so these tests pin the whole
CLI contract (data, diagnostics, prune logs, violation order) across
changes to the internals. Each command runs in a fresh interpreter, as a
user would run it, with ``tests/data`` as the working directory.

To record the transcripts of commands that ``golden_cli.json`` lacks:

    PYTHONPATH=src python tests/test_golden_cli.py

Only the missing commands (matched by argv) run; every recorded
transcript is kept as it is. To record a case again, delete it from the
file first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
SRC = DATA.parent.parent / "src"
GOLDEN = DATA / "golden_cli.json"

DEMO = "../../data/demo.reactions"
COMMANDS = [
    ["rank", DEMO, "--format", "reactions", "--prune", "--precision", "full"],
    ["ingest", DEMO],
    ["validate", DEMO, "--format", "reactions"],
    ["simulate", DEMO, "--format", "reactions", "--prune", "--steps", "20000",
     "--seed", "3"],
    ["rank", "small_net.json", "--prune", "--precision", "full"],
    ["rank", "small_net.json", "--prune", "--damping", "0.85", "--precision", "full",
     "--top", "50"],
    ["ingest", "small_net.json", "--format", "json"],
    ["validate", "small_net.json"],
    ["simulate", "small_net.json", "--prune", "--steps", "20000", "--seed", "5"],
    ["ingest", "small_net.reactions"],
    ["rank", "small_net.reactions", "--format", "reactions", "--prune",
     "--precision", "full"],
    ["validate", "small_net.reactions", "--format", "reactions"],
    ["simulate", "small_net.reactions", "--format", "reactions", "--prune",
     "--steps", "20000", "--seed", "7"],
    ["validate", "invalid_net.json"],
    ["rank", "invalid_net.json", "--prune"],
    ["ingest", "invalid_net.json", "--format", "json"],
    ["validate", "schema_error.json"],
    ["laplacian", "small_net.json", "--prune"],
    ["laplacian", "small_net.json", "--prune", "--kind", "symmetric"],
    ["laplacian", DEMO, "--format", "reactions", "--prune", "--kind", "symmetric"],
    # the pruned core keeps a transient vertex, so the null residual of
    # L_sym fails and the command exits 1
    ["laplacian", "small_net.reactions", "--format", "reactions", "--prune"],
    # CRLF endings, a form feed and a line separator between records,
    # no-break and em spaces around names, comments, blank lines, a
    # duplicate mention and boundary records
    ["ingest", "edge.reactions"],
    ["ingest", "edge.reactions", "--reversible", "forward-only"],
    ["validate", "edge.reactions", "--format", "reactions"],
    # the syntax error follows a line separator, so it is on line 3
    ["ingest", "edge_error.reactions"],
]


def run_cli(argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "hyperrank.cli", *argv],
                          cwd=DATA, env=env, capture_output=True, text=True,
                          timeout=120)
    return {"argv": argv, "exit": proc.returncode,
            "stdout": proc.stdout, "stderr": proc.stderr}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert [case["argv"] for case in _golden()] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[f"{i}-{argv[0]}-{Path(argv[1]).name}"
                              for i, argv in enumerate(COMMANDS)])
def test_cli_transcript_is_unchanged(index):
    expected = _golden()[index]
    assert run_cli(expected["argv"]) == expected


if __name__ == "__main__":
    recorded = {json.dumps(case["argv"]): case for case in _golden()} if GOLDEN.exists() else {}
    cases = [recorded.get(json.dumps(argv)) or run_cli(argv) for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
