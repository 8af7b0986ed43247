"""Smoke tests: every demo script and the README's library quick start run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, tmp_path):
    """Run ``python args`` in tmp_path against the package under src/."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write their datasets under the temp dir; each must remove what it wrote
    result = _run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    result = _run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "recommender\tndcg@10" in result.stdout


def test_readme_config_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tmp_path / "experiment.ini").write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    cli = ["-m", "marketrec.cli"]
    generated = _run_python([*cli, "generate", "--users", "60", "--clusters", "3", "--out", "data"], tmp_path)
    assert generated.returncode == 0, generated.stderr
    result = _run_python([*cli, "run", "--config", "experiment.ini"], tmp_path)
    assert result.returncode == 0, result.stderr
    report = (tmp_path / "results" / "products" / "report.tsv").read_text(encoding="utf-8").splitlines()
    names = [line.split("\t")[0] for line in report[1:]]
    assert names == ["most_popular", "sn.graph.no", "mp.purchases.jaccard", "all_sources"]
