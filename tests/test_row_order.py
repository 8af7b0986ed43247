"""Reports must not depend on the order of the data rows in the input files."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from marketrec.corpus import CORPUS_FILES
from marketrec.synth import SyntheticSpec, generate

from helpers import write_task_reports

SPLIT_SEED = 3


def report_bytes(data_dir) -> dict[str, bytes]:
    """Every report file of every task, keyed by its path relative to the output directory."""
    with tempfile.TemporaryDirectory() as out:
        write_task_reports(data_dir, out, SPLIT_SEED)
        return {str(path.relative_to(out)): path.read_bytes() for path in Path(out).rglob("*.tsv")}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("row_order")
    generate(SyntheticSpec(users=24, clusters=3, noise=0.2, seed=13), out)
    return out, report_bytes(out)


# a shuffle has no smaller form worth shrinking to, and each example runs every feature
@settings(
    max_examples=4,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.randoms(use_true_random=False))
def test_shuffled_rows_give_identical_reports(dataset, rng: random.Random):
    source, expected = dataset
    with tempfile.TemporaryDirectory() as shuffled:
        for name in CORPUS_FILES.values():
            header, *rows = (source / name).read_text(encoding="utf-8").splitlines(keepends=True)
            rng.shuffle(rows)
            (Path(shuffled) / name).write_text(header + "".join(rows), encoding="utf-8")
        actual = report_bytes(shuffled)
    assert len(expected) == 9
    assert [name for name in expected if actual[name] != expected[name]] == []
