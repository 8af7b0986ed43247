"""Workload definitions and synthetic input generation for the marketrec benchmark.

Every workload uses planted-cluster data from ``SyntheticSpec(clusters=20,
noise=0.1)`` seeded by the benchmark's ``--seed``. The program only ever sees
the generated files; the seed never reaches it. Every workload also serves
single-user requests (``k_nearest`` + ``cf_products``) over its features, for
request latency and the oracle sample. The eval workloads do so after their
``run_experiment`` passes, on the split's training data, once for every
(eligible user, feature): a fixed request set keeps their p99 from depending
on which heavy targets a random draw happens to pick.

- ``eval-products``: withhold-10 evaluation of the products task with the
  recommender mix of the ROADMAP baseline. Similarity k-NN (content and
  two-hop network features) does most of the work.
- ``eval-all-tasks``: all three tasks with cheap neighbourhoods, so the metric
  layer, ranking, popularity and the per-task engine rebuild carry a large
  share of the time and k-NN only a small one.
- ``query-hub``: single-user serving with warm indexes over data with one
  1000-attendee event. It is the only workload that covers the ``pa`` and
  ``total`` scorers (three of its seven request types are such full scans), and its co-location clique makes graph build time and
  memory dominate set-up. It is the counterweight to the eval workloads: an
  optimisation that precomputes every neighbourhood helps them but shows here
  as worse ``setup_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import csv
import random
import sys
from itertools import cycle
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"

DEFAULT_SEED = 1
SPLIT_SEED = 7
KNN_K = 40
LIST_N = 10
CLUSTERS = 20
NOISE = 0.1
HUB_EVENT = "ehub"
HUB_LOCATION = "mlhub"


def require_program() -> None:
    """Put the package sources and the test oracles on the import path.

    Raises SystemExit when the checkout does not hold them, so the benchmark
    fails loudly instead of measuring some other installed copy.
    """
    if not (SRC / "marketrec" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'marketrec'} and {TESTS / 'oracles.py'} are required")
    for path in (str(SRC), str(TESTS)):
        if path not in sys.path:
            sys.path.insert(0, path)


@dataclass(frozen=True)
class Size:
    users: int
    pinned_requests: int  # leading responses covered by the request digest
    min_requests: int = 0  # query workloads: requests served at least
    hub: int = 0  # query workloads: attendees of the extra monitored event


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # eval | query
    full: Size
    smoke: Size
    tasks: tuple[str, ...] = ()
    # recommender ids; a tuple entry is a derived-weight hybrid of its components
    recommenders: tuple = ()
    features: tuple[str, ...] = ()  # query workloads: request feature cycle

    def size(self, smoke: bool) -> Size:
        return self.smoke if smoke else self.full

    def recommender_defs(self):
        from marketrec.evalharness import HybridDef

        return [
            HybridDef("hybrid", rec) if isinstance(rec, tuple) else rec for rec in self.recommenders
        ]

    def feature_ids(self) -> tuple[str, ...]:
        """Distinct similarity feature ids the workload reads, in first-use order."""
        if self.kind == "query":
            return self.features
        seen: list[str] = []
        for rec in self.recommenders:
            for component in rec if isinstance(rec, tuple) else (rec,):
                if component != "most_popular" and component not in seen:
                    seen.append(component)
        return tuple(seen)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eval-products",
            kind="eval",
            full=Size(users=1000, pinned_requests=500),
            smoke=Size(users=100, pinned_requests=32),
            tasks=("products",),
            recommenders=(
                "most_popular",
                "mp.purchases.jaccard",
                "sn.graph.aa",
                "loc.graph.no",
                ("mp.purchases.jaccard", "sn.graph.no", "loc.monitored.jaccard"),
            ),
        ),
        Workload(
            name="eval-all-tasks",
            kind="eval",
            full=Size(users=1000, pinned_requests=500),
            smoke=Size(users=100, pinned_requests=32),
            tasks=("products", "low_categories", "top_categories"),
            recommenders=(
                "most_popular",
                "mp.purchases.jaccard",
                "mp.categories.jaccard",
                "sn.graph.directed",
                ("mp.purchases.jaccard", "sn.graph.directed", "most_popular"),
            ),
        ),
        Workload(
            name="query-hub",
            kind="query",
            full=Size(users=2000, pinned_requests=500, min_requests=1000, hub=1000),
            smoke=Size(users=150, pinned_requests=32, min_requests=64, hub=60),
            features=(
                "mp.purchases.jaccard",
                "mp.sellers.total",
                "sn.graph.aa",
                "sn.graph.pa",
                "loc.graph.no",
                "loc.monitored.jaccard",
                # A third full scan makes the cycle odd, so the median request
                # is the middle of one request type. With the six above, three
                # types take under 2 ms and three 7 ms or more, so the median
                # falls in the gap between them and jumps from seed to seed.
                "mp.purchases.total",
            ),
        ),
    )
}


def generate_input(workload: Workload, seed: int, smoke: bool, out_dir: Path) -> None:
    """Write the workload's corpus files for one seed into ``out_dir``."""
    from marketrec.corpus import CORPUS_FILES
    from marketrec.synth import SyntheticSpec, generate

    size = workload.size(smoke)
    generate(SyntheticSpec(users=size.users, clusters=CLUSTERS, noise=NOISE, seed=seed), out_dir)
    if size.hub:
        users = [f"u{i:04d}" for i in range(size.users)]
        attendees = sorted(random.Random(f"perfbench-hub-{seed}").sample(users, size.hub))
        with open(out_dir / CORPUS_FILES["locations"], "a", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            for user in attendees:
                writer.writerow([user, HUB_LOCATION, "monitored", HUB_EVENT])


def request_stream(features, users, seed: int):
    """The seeded closed-loop request sequence: endless (feature, target) pairs.

    Each request draws a random target and takes the next feature in turn.
    """
    rng = random.Random(f"perfbench-requests-{seed}")
    ordered = sorted(users)
    for feature in cycle(features):
        yield feature, rng.choice(ordered)


def request_sweep(features, users, seed: int):
    """Every (feature, user) request once: users in seeded order, features in turn."""
    ordered = sorted(users)
    random.Random(f"perfbench-requests-{seed}").shuffle(ordered)
    return [(feature, user) for user in ordered for feature in features]
