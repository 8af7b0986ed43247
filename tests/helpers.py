"""Shared test utilities for building corpora on disk and in memory."""

from pathlib import Path

from marketrec.corpus import (
    Corpus,
    InterestTag,
    LocationRecord,
    Membership,
    Product,
    Purchase,
    SocialInteraction,
    load_corpus,
)
from marketrec.evalharness import TASKS, HybridDef, make_split, run_experiment, write_report
from marketrec.simfeatures import ALL_FEATURE_IDS

FILE_HEADERS = {
    "products.csv": "product_id,seller_id,category_path",
    "purchases.csv": "buyer_id,product_id",
    "social.csv": "actor_id,target_id,kind",
    "groups.csv": "user_id,group_id",
    "interests.csv": "user_id,interest_id",
    "locations.csv": "user_id,location_id,kind,event_id",
}


def write_corpus_files(
    directory,
    products=(),
    purchases=(),
    social=(),
    groups=(),
    interests=(),
    locations=(),
) -> Path:
    """Write the six corpus CSV files from row tuples; returns the directory.

    Rows are sequences of field strings, written verbatim after the header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = {
        "products.csv": products,
        "purchases.csv": purchases,
        "social.csv": social,
        "groups.csv": groups,
        "interests.csv": interests,
        "locations.csv": locations,
    }
    for name, rows in tables.items():
        lines = [FILE_HEADERS[name]]
        lines.extend(",".join(row) for row in rows)
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return directory


def make_corpus(
    products=(),
    purchases=(),
    social=(),
    memberships=(),
    interests=(),
    locations=(),
    extra_users=(),
) -> Corpus:
    """Assemble a Corpus directly from row tuples, bypassing the loader.

    products: (id, seller, path tuple); purchases: (buyer, product);
    social: (actor, target, kind); memberships/interests: (user, entity);
    locations: (user, location, kind, event or None).
    """
    product_map = {pid: Product(pid, seller, tuple(path)) for pid, seller, path in products}
    purchase_rows = tuple(Purchase(buyer, product) for buyer, product in purchases)
    social_rows = tuple(SocialInteraction(a, t, kind) for a, t, kind in social)
    membership_rows = tuple(Membership(u, g) for u, g in memberships)
    interest_rows = tuple(InterestTag(u, i) for u, i in interests)
    location_rows = tuple(LocationRecord(u, loc, kind, event) for u, loc, kind, event in locations)
    users = set(extra_users)
    users.update(p.buyer for p in purchase_rows)
    for s in social_rows:
        users.update((s.actor, s.target))
    users.update(m.user for m in membership_rows)
    users.update(t.user for t in interest_rows)
    users.update(r.user for r in location_rows)
    return Corpus(
        products=product_map,
        purchases=purchase_rows,
        social=social_rows,
        memberships=membership_rows,
        interests=interest_rows,
        locations=location_rows,
        users=frozenset(users),
    )


# Every feature id, the popularity baseline, and both kinds of hybrid.
ALL_RECOMMENDERS = (
    "most_popular",
    *ALL_FEATURE_IDS,
    HybridDef("derived", ("mp.purchases.jaccard", "sn.graph.no", "loc.monitored.jaccard")),
    HybridDef(
        "explicit",
        ("most_popular", "sn.graph.aa", "mp.categories.jaccard"),
        weights={"most_popular": 0.25, "sn.graph.aa": 0.75, "mp.categories.jaccard": 0.0},
    ),
)


def write_task_reports(data_dir, out_dir, split_seed) -> None:
    """Run ALL_RECOMMENDERS on every task; write each task's reports under ``out_dir/<task>``."""
    corpus = load_corpus(data_dir)
    split = make_split(corpus, split_seed)
    for task in TASKS:
        report = run_experiment(corpus, split, ALL_RECOMMENDERS, task)
        write_report(report, Path(out_dir) / task)
