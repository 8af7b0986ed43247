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

import oracles

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


def oracle_scorer(corpus, feature_id):
    """(score(u, v), data(u)) for one feature id, recomputed from the raw rows.

    ``data(u)`` is the user's entity set, or their neighbours for a graph
    feature; ``directed`` scores the larger of the two one-directional counts.
    """
    prefix, selector, suffix = feature_id.split(".")
    if selector == "graph":
        if prefix == "sn":
            sets = oracles.adjacency_from_social(corpus.social)
        else:
            sets = oracles.adjacency_from_colocation(corpus.locations)
    elif selector == "purchases":
        sets = oracles.purchase_sets(corpus.purchases)
    elif selector == "sellers":
        sets = oracles.seller_sets(corpus.purchases, corpus.products)
    elif selector == "categories":
        sets = oracles.category_sets(corpus.purchases, corpus.products)
    elif selector == "groups":
        sets = oracles.pair_sets((m.user, m.group) for m in corpus.memberships)
    elif selector == "interests":
        sets = oracles.pair_sets((t.user, t.interest) for t in corpus.interests)
    else:
        sets = oracles.location_sets(corpus.locations, selector)

    def data(user):
        return sets.get(user, set())

    if suffix == "directed":
        counts = oracles.directed_counts(corpus.social)
        return (lambda u, v: float(max(counts.get((u, v), 0), counts.get((v, u), 0)))), data
    if selector == "graph":
        return (lambda u, v: oracles.network_score(sets, u, v, suffix)), data
    return (lambda u, v: oracles.content_score(data(u), data(v), suffix)), data


def oracle_knn(users, target, k, scorer):
    """``oracles.knn`` as a tuple; empty for a target without data, even under ``total``."""
    score, data = scorer
    return tuple(oracles.knn(users, target, k, score)) if data(target) else ()
