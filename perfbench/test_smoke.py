"""The benchmark's own test: every workload path and both checks, at tiny sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_the_checks(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_unpinned_seed_runs_the_oracle_check():
    done = bench("--workload", "eval-products", "--seed", "3", "--smoke")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"]


def test_wrong_output_fails_the_run(tmp_path, monkeypatch, capsys):
    """A changed CF list breaks both the pinned digest and the oracle sample."""
    import measure
    from marketrec import recommender

    workload = workloads.WORKLOADS["eval-products"]
    workloads.generate_input(workload, workloads.DEFAULT_SEED, True, tmp_path)
    original = recommender.cf_products

    def reversed_cf(slice_, purchase_sets, n=10):
        rec = original(slice_, purchase_sets, n)
        return type(rec)(target=rec.target, kind=rec.kind, items=rec.items[::-1])

    monkeypatch.setattr(recommender, "cf_products", reversed_cf)
    monkeypatch.setattr(measure.evalharness, "cf_products", reversed_cf)
    code = measure.main([
        "--workload", workload.name, "--seconds", "1", "--data", str(tmp_path), "--smoke",
    ])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert "digest of products.report" in err and "CF items differ from the oracle" in err


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "query-hub", "--smoke", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
