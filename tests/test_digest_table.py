"""Smoke-runs the behaviour-preservation digest table for one approach.

``benchmarks/digest_table.py`` (``make digests``) prints the training and
alignment-module digests a refactor is compared by; this runs it for
MTransE and checks the shape of both tables.
"""

import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
DIGEST = re.compile(r"`[0-9a-f]{16}`")


@pytest.fixture(scope="module")
def digest_table():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import digest_table
        yield digest_table
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_digest_table_for_one_approach(digest_table, capsys):
    assert digest_table.main(["--approach", "MTransE"]) == 0
    rows = [line.split(" | ") for line in capsys.readouterr().out.splitlines()
            if line.startswith("| MTransE |")]
    training, evaluation = rows[:2], rows[2:]
    assert [row[1] for row in training] == ["plain", "early-stop"]
    for row in training:
        assert DIGEST.fullmatch(row[2]) and DIGEST.fullmatch(row[3])
        assert int(row[5]) > 0  # steps_run
    (row,) = evaluation
    assert all(DIGEST.fullmatch(cell) for cell in row[1:5] + row[6:7])
    assert float(row[5]) == float(row[5])  # the NIL threshold is a number
