"""End-to-end offline evaluation on a planted-cluster dataset.

Withholds 10 purchases per eligible user, evaluates single-feature
recommenders against the popularity baseline, derives hybrid weights on an
inner split, and prints the metric table for each task. The same experiment
then runs through the command-line interface.
"""

import tempfile
from pathlib import Path

from marketrec import load_corpus, make_split, run_experiment
from marketrec.cli import main
from marketrec.evalharness import HybridDef, format_report_table
from marketrec.synth import SyntheticSpec, generate

with tempfile.TemporaryDirectory(prefix="marketrec-demo-") as tmp:
    workdir = Path(tmp)
    data_dir = workdir / "data"
    generate(SyntheticSpec(users=100, clusters=5, noise=0.1, seed=3), data_dir)
    corpus = load_corpus(data_dir)

    split = make_split(corpus, seed=7)
    print(f"{len(split.eligible)} of {len(corpus.users)} users are eligible for evaluation\n")

    recommenders = [
        "most_popular",
        "mp.purchases.jaccard",
        "sn.graph.no",
        "loc.monitored.jaccard",
        HybridDef("all_sources", ("mp.purchases.jaccard", "sn.graph.no", "loc.monitored.jaccard")),
    ]
    for task in ("products", "low_categories", "top_categories"):
        report = run_experiment(corpus, split, recommenders, task, knn_k=40, list_length=10)
        print(f"--- {task}")
        print(format_report_table(report))

    # the same experiment, driven by a config file through the CLI
    config = workdir / "experiment.ini"
    config.write_text(
        f"""[experiment]
data = {data_dir}
out = {workdir / 'results'}
seed = 7
k = 40
n = 10
task = products

[recommenders]
ids = most_popular, sn.graph.no

[hybrid:all_sources]
components = mp.purchases.jaccard, sn.graph.no, loc.monitored.jaccard
""",
        encoding="utf-8",
    )
    print("--- CLI run")
    exit_code = main(["run", "--config", str(config)])
    # the report files go with the temporary directory, so show one before it is removed
    print(f"exit code {exit_code}; its products report:")
    print((workdir / "results" / "products" / "report.tsv").read_text(encoding="utf-8"), end="")
