"""Correctness checks: pinned output digests and a sampled oracle cross-check.

Digests pin the bytes of the three report tables per (eval workload, task)
and the query response stream, at the default seed. The oracle check runs on
every seed: it compares a seeded sample of ``k_nearest`` + ``cf_products``
results with the brute-force reference in ``tests/oracles.py``, the way the
acceptance criteria 1 and 2 compare them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import oracles  # tests/oracles.py, put on the path by workloads.require_program()

DIGESTS_FILE = Path(__file__).resolve().with_name("digests.json")
TOL = 1e-9
EXACT_SUFFIXES = ("common", "total", "cn", "pa", "directed")  # integer-valued scores


def pinned_digests(smoke: bool) -> dict:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))["smoke" if smoke else "full"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests(report) -> dict[str, str]:
    from marketrec.evalharness import format_curves_table, format_metadata_table, format_report_table

    return {
        "report": sha256(format_report_table(report)),
        "curves": sha256(format_curves_table(report)),
        "meta": sha256(format_metadata_table(report)),
    }


def response_line(feature: str, target: str, slice_, rec) -> str:
    """One query response as text, scores at the precision of the report files."""
    neighbours = ",".join(f"{user}:{score:.6f}" for user, score in slice_.scored)
    items = ",".join(f"{item}:{score:.6f}" for item, score in rec.items)
    return f"{feature}\t{target}\t{neighbours}\t{items}\n"


class Oracle:
    """Brute-force neighbourhoods and CF lists recomputed from the raw rows."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.users = sorted(corpus.users)
        self._sets: dict[str, dict] = {}
        self._adjacency: dict[str, dict] = {}
        self._directed = None

    def entity_sets(self, kind: str):
        if kind not in self._sets:
            c = self.corpus
            builders = {
                "purchases": lambda: oracles.purchase_sets(c.purchases),
                "sellers": lambda: oracles.seller_sets(c.purchases, c.products),
                "categories": lambda: oracles.category_sets(c.purchases, c.products),
                "groups": lambda: oracles.pair_sets((m.user, m.group) for m in c.memberships),
                "interests": lambda: oracles.pair_sets((t.user, t.interest) for t in c.interests),
                "favored": lambda: oracles.location_sets(c.locations, "favored"),
                "shared": lambda: oracles.location_sets(c.locations, "shared"),
                "monitored": lambda: oracles.location_sets(c.locations, "monitored"),
            }
            self._sets[kind] = builders[kind]()
        return self._sets[kind]

    def adjacency(self, prefix: str):
        if prefix not in self._adjacency:
            if prefix == "sn":
                self._adjacency[prefix] = oracles.adjacency_from_social(self.corpus.social)
            else:
                self._adjacency[prefix] = oracles.adjacency_from_colocation(self.corpus.locations)
        return self._adjacency[prefix]

    def scorer(self, feature_id: str):
        """(score(u, v), has_data(u)) for one feature id.

        A target without data for the feature gets an empty neighbourhood, as
        SimilarityContext.k_nearest documents, even under ``total``.
        """
        prefix, selector, suffix = feature_id.split(".")
        if selector == "graph":
            adjacency = self.adjacency(prefix)
            has_data = lambda u: bool(adjacency.get(u))
            if suffix == "directed":
                if self._directed is None:
                    self._directed = oracles.directed_counts(self.corpus.social)
                counts = self._directed
                return (lambda u, v: float(max(counts.get((u, v), 0), counts.get((v, u), 0)))), has_data
            return (lambda u, v: oracles.network_score(adjacency, u, v, suffix)), has_data
        sets = self.entity_sets(selector)
        empty: set = set()
        return (
            lambda u, v: oracles.content_score(sets.get(u, empty), sets.get(v, empty), suffix)
        ), (lambda u: bool(sets.get(u)))

    def mismatches(self, feature_id: str, target: str, k: int, n: int, slice_, rec) -> list[str]:
        """Differences between one engine response and the oracle; empty if none."""
        score, has_data = self.scorer(feature_id)
        expected = oracles.knn(self.users, target, k, score) if has_data(target) else []
        where = f"{feature_id} target {target}"
        problems = []
        if list(slice_.users()) != [user for user, _ in expected]:
            return [f"{where}: neighbours differ from the oracle"]
        exact = feature_id.split(".")[2] in EXACT_SUFFIXES
        for (_, got), (_, want) in zip(slice_.scored, expected):
            if (got != want) if exact else abs(got - want) >= TOL:
                problems.append(f"{where}: similarity {got!r} != oracle {want!r}")
                break
        owned = self.entity_sets("purchases")
        expected_items = oracles.ranked(
            oracles.cf_product_scores(expected, owned, owned.get(target, set())), n
        )
        if [item for item, _ in rec.items] != [item for item, _ in expected_items]:
            problems.append(f"{where}: CF items differ from the oracle")
        elif any(abs(got - want) >= TOL for (_, got), (_, want) in zip(rec.items, expected_items)):
            problems.append(f"{where}: CF scores differ from the oracle")
        return problems
