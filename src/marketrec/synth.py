"""Synthetic three-source dataset generator with planted user clusters.

Users are assigned round-robin to clusters. Each cluster owns pools of
products (with a cluster-specific category subtree), sellers, groups,
interests, locations, and scheduled events; users draw from their own
cluster's pools except for a configurable fraction of cross-cluster noise
draws. The generator emits the six corpus files plus a manifest recording
the planted ground truth (cluster assignments and per-table row counts).
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import _HEADERS, CORPUS_FILES, SOCIAL_KINDS

MANIFEST_NAME = "manifest.json"

# Pool sizes per cluster and draw counts per user that every corpus shares.
PRODUCTS_PER_CLUSTER = 30
SELLERS_PER_CLUSTER = 3
SOCIAL_PER_USER = 12
EVENTS_PER_CLUSTER = 6
MONITORED_PER_CLUSTER = 3
# Tables each user fills with distinct noisy draws, in draw order:
# (table, id prefix, pool size per cluster, draws per user, trailing fields).
POOLED = (
    ("groups", "g", 6, 4, ()),
    ("interests", "i", 5, 3, ()),
    ("locations", "fl", 6, 4, ("favored", "")),
    ("locations", "sl", 4, 2, ("shared", "")),
)


@dataclass(frozen=True)
class SyntheticSpec:
    users: int = 50
    clusters: int = 5
    noise: float = 0.1
    seed: int = 0
    purchases_per_user: int = 20
    events_per_user: int = 4

    def validate(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise rate must be in [0, 1], got {self.noise}")
        counts = {name: value for name, value in asdict(self).items() if name not in ("noise", "seed")}
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.users < self.clusters:
            raise ValueError(
                f"need at least one user per cluster ({self.users} users, {self.clusters} clusters)"
            )


def _pools(prefix: str, size: int, clusters: int) -> list[list[str]]:
    """Per-cluster id lists: cluster c owns the ids numbered c * size to c * size + size - 1."""
    return [[f"{prefix}{c * size + j:03d}" for j in range(size)] for c in range(clusters)]


def generate(spec: SyntheticSpec, out_dir: str | Path) -> dict:
    """Write the six corpus files and manifest.json; returns the manifest.

    Deterministic for a given spec: one seeded generator drives all draws in
    a fixed order.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {table: [] for table in CORPUS_FILES}

    users = [f"u{i:04d}" for i in range(spec.users)]
    user_cluster = {user: i % spec.clusters for i, user in enumerate(users)}
    members = [[] for _ in range(spec.clusters)]
    for user, cluster in user_cluster.items():
        members[cluster].append(user)

    # Category tree: roughly two clusters share a top-level category, while
    # mid and low levels are cluster-specific, so low-level prediction is a
    # strictly finer task than top-level prediction.
    top_count = max(2, (spec.clusters + 1) // 2)
    top_cat = [f"t{c % top_count:02d}" for c in range(spec.clusters)]
    mid_cats = [[f"m{c * 2 + j:03d}" for j in range(2)] for c in range(spec.clusters)]
    low_cats = [[f"c{c * 4 + j:03d}" for j in range(4)] for c in range(spec.clusters)]

    sellers = _pools("s", SELLERS_PER_CLUSTER, spec.clusters)
    product_cluster = {}
    cluster_products = [[] for _ in range(spec.clusters)]
    for c in range(spec.clusters):
        for j in range(PRODUCTS_PER_CLUSTER):
            index = c * PRODUCTS_PER_CLUSTER + j
            product = f"p{index:04d}"
            if index % 10 == 9:
                path = []  # ~10% of products stay uncategorized
            else:
                depth = rng.choice((2, 3, 3, 4))
                path = [top_cat[c]]
                if depth == 3:
                    path.append(rng.choice(mid_cats[c]))
                elif depth == 4:
                    path.extend(mid_cats[c])
                path.append(rng.choice(low_cats[c]))
            tables["products"].append([product, rng.choice(sellers[c]), "|".join(path)])
            product_cluster[product] = c
            cluster_products[c].append(product)

    def pick_cluster(own: int) -> int:
        if spec.clusters > 1 and rng.random() < spec.noise:
            other = rng.randrange(spec.clusters - 1)
            return other if other < own else other + 1
        return own

    def noisy_sample(pools, own, count):
        """Distinct draws from pools[own], each independently redirected to the other pools by noise."""
        foreign = sum(1 for _ in range(count) if spec.clusters > 1 and rng.random() < spec.noise)
        picked = rng.sample(pools[own], min(count - foreign, len(pools[own])))
        if foreign:
            others = [entity for c, pool in enumerate(pools) if c != own for entity in pool]
            picked += rng.sample(others, min(foreign, len(others)))
        return picked

    pools = {prefix: _pools(prefix, size, spec.clusters) for _, prefix, size, _, _ in POOLED}
    monitored = _pools("ml", MONITORED_PER_CLUSTER, spec.clusters)
    # events are scheduled per cluster at one of its monitored locations
    events = []
    for c in range(spec.clusters):
        cluster_events = []
        for j in range(EVENTS_PER_CLUSTER):
            cluster_events.append((f"e{c * EVENTS_PER_CLUSTER + j:04d}", rng.choice(monitored[c])))
        events.append(cluster_events)

    for user in users:
        own = user_cluster[user]
        for _ in range(spec.purchases_per_user):
            tables["purchases"].append([user, rng.choice(cluster_products[pick_cluster(own)])])
        for _ in range(SOCIAL_PER_USER):
            pool = [u for u in members[pick_cluster(own)] if u != user]
            if not pool:
                continue
            tables["social"].append([user, rng.choice(pool), rng.choice(SOCIAL_KINDS)])
        for table, prefix, _, count, trailing in POOLED:
            for entity in noisy_sample(pools[prefix], own, count):
                tables[table].append([user, entity, *trailing])
        for _ in range(spec.events_per_user):
            event_id, location = rng.choice(events[pick_cluster(own)])
            tables["locations"].append([user, location, "monitored", event_id])

    for table, rows in tables.items():
        with open(out / CORPUS_FILES[table], "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(_HEADERS[table])
            writer.writerows(rows)

    manifest = {
        "spec": asdict(spec),
        "user_clusters": user_cluster,
        "product_clusters": product_cluster,
        "counts": {table: len(rows) for table, rows in tables.items()},
        "files": dict(CORPUS_FILES),
    }
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
