"""Golden-report gate: every task's report files must match the pinned bytes.

The pinned files under ``tests/golden/<task>/`` cover every feature id, the
popularity baseline, one hybrid with derived weights and one with explicit
weights, on the planted dataset with the pinned split seed. A refactor or a
speed-up that changes a single byte of any report fails here.

To regenerate the pinned files (only when a report change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import tempfile
from pathlib import Path

import pytest

from marketrec.evalharness import TASKS
from marketrec.synth import generate

from conftest import PLANTED_SPEC, PLANTED_SPLIT_SEED
from helpers import write_task_reports

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def regenerated(planted_dataset, tmp_path_factory):
    directory, _ = planted_dataset
    out = tmp_path_factory.mktemp("golden")
    write_task_reports(directory, out, PLANTED_SPLIT_SEED)
    return out


@pytest.mark.parametrize("name", ("report.tsv", "curves.tsv", "meta.tsv"))
@pytest.mark.parametrize("task", TASKS)
def test_reports_match_golden_bytes(regenerated, task, name):
    expected = (GOLDEN / task / name).read_bytes()
    assert (regenerated / task / name).read_bytes() == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as data_dir:
        generate(PLANTED_SPEC, data_dir)
        write_task_reports(data_dir, GOLDEN, PLANTED_SPLIT_SEED)
    print(f"wrote {GOLDEN}")
