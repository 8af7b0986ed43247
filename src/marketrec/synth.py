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


@dataclass(frozen=True)
class SyntheticSpec:
    users: int = 50
    clusters: int = 5
    noise: float = 0.1
    seed: int = 0
    # marketplace intensities
    purchases_per_user: int = 20
    products_per_cluster: int = 30
    sellers_per_cluster: int = 3
    # social intensities
    social_per_user: int = 12
    groups_per_user: int = 4
    groups_per_cluster: int = 6
    interests_per_user: int = 3
    interests_per_cluster: int = 5
    # location intensities
    favored_per_user: int = 4
    favored_per_cluster: int = 6
    shared_per_user: int = 2
    shared_per_cluster: int = 4
    events_per_user: int = 4
    events_per_cluster: int = 6
    monitored_locations_per_cluster: int = 3

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


def generate(spec: SyntheticSpec, out_dir: str | Path) -> dict:
    """Write the six corpus files and manifest.json; returns the manifest.

    Deterministic for a given spec: one seeded generator drives all draws in
    a fixed order.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

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

    product_rows = []
    product_cluster = {}
    cluster_products = [[] for _ in range(spec.clusters)]
    index = 0
    for c in range(spec.clusters):
        sellers = [f"s{c * spec.sellers_per_cluster + j:03d}" for j in range(spec.sellers_per_cluster)]
        for _ in range(spec.products_per_cluster):
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
            product_rows.append([product, rng.choice(sellers), "|".join(path)])
            product_cluster[product] = c
            cluster_products[c].append(product)
            index += 1

    def pick_cluster(own: int) -> int:
        if spec.clusters > 1 and rng.random() < spec.noise:
            other = rng.randrange(spec.clusters - 1)
            return other if other < own else other + 1
        return own

    def noisy_sample(own_pool, other_pools, count):
        """Distinct draws, each independently redirected to foreign pools by noise."""
        foreign = sum(1 for _ in range(count) if spec.clusters > 1 and rng.random() < spec.noise)
        picked = rng.sample(own_pool, min(count - foreign, len(own_pool)))
        if foreign and other_pools:
            picked += rng.sample(other_pools, min(foreign, len(other_pools)))
        return picked

    purchase_rows = []
    social_rows = []
    group_rows = []
    interest_rows = []
    location_rows = []

    groups = [[f"g{c * spec.groups_per_cluster + j:03d}" for j in range(spec.groups_per_cluster)] for c in range(spec.clusters)]
    interests = [[f"i{c * spec.interests_per_cluster + j:03d}" for j in range(spec.interests_per_cluster)] for c in range(spec.clusters)]
    favored = [[f"fl{c * spec.favored_per_cluster + j:03d}" for j in range(spec.favored_per_cluster)] for c in range(spec.clusters)]
    shared = [[f"sl{c * spec.shared_per_cluster + j:03d}" for j in range(spec.shared_per_cluster)] for c in range(spec.clusters)]
    monitored = [[f"ml{c * spec.monitored_locations_per_cluster + j:03d}" for j in range(spec.monitored_locations_per_cluster)] for c in range(spec.clusters)]
    # events are scheduled per cluster at one of its monitored locations
    events = []
    event_index = 0
    for c in range(spec.clusters):
        cluster_events = []
        for _ in range(spec.events_per_cluster):
            cluster_events.append((f"e{event_index:04d}", rng.choice(monitored[c])))
            event_index += 1
        events.append(cluster_events)

    for user in users:
        own = user_cluster[user]
        for _ in range(spec.purchases_per_user):
            purchase_rows.append([user, rng.choice(cluster_products[pick_cluster(own)])])
        for _ in range(spec.social_per_user):
            pool = [u for u in members[pick_cluster(own)] if u != user]
            if not pool:
                continue
            social_rows.append([user, rng.choice(pool), rng.choice(SOCIAL_KINDS)])
        other_groups = [g for c in range(spec.clusters) if c != own for g in groups[c]]
        for group in noisy_sample(groups[own], other_groups, spec.groups_per_user):
            group_rows.append([user, group])
        other_interests = [i for c in range(spec.clusters) if c != own for i in interests[c]]
        for interest in noisy_sample(interests[own], other_interests, spec.interests_per_user):
            interest_rows.append([user, interest])
        other_favored = [f for c in range(spec.clusters) if c != own for f in favored[c]]
        for location in noisy_sample(favored[own], other_favored, spec.favored_per_user):
            location_rows.append([user, location, "favored", ""])
        other_shared = [s for c in range(spec.clusters) if c != own for s in shared[c]]
        for location in noisy_sample(shared[own], other_shared, spec.shared_per_user):
            location_rows.append([user, location, "shared", ""])
        for _ in range(spec.events_per_user):
            event_id, location = rng.choice(events[pick_cluster(own)])
            location_rows.append([user, location, "monitored", event_id])

    tables = {
        "products": product_rows,
        "purchases": purchase_rows,
        "social": social_rows,
        "groups": group_rows,
        "interests": interest_rows,
        "locations": location_rows,
    }
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
