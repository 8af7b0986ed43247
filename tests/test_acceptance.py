"""Acceptance gate: one test per release criterion.

Each criterion runs at its stated tolerance; the conftest summary hook prints
one PASS/FAIL line per criterion at the end of the session.
"""

import random
import time

import pytest

from marketrec.cli import EXIT_OK, main
from marketrec.corpus import entity_sets, load_corpus, with_purchases
from marketrec.evalharness import HybridDef, make_split, run_experiment
from marketrec.recommender import (
    RecommendationList,
    cf_products,
    normalize_scores,
    weighted_sum_hybrid,
)
from marketrec.simfeatures import SimilarityContext
from marketrec.synth import SyntheticSpec, generate

from conftest import PLANTED_SPLIT_SEED
from helpers import oracle_knn, oracle_scorer
import oracles

TOL = 1e-9

MARKET_FEATURES = ("mp.purchases.jaccard", "mp.sellers.jaccard", "mp.categories.jaccard")
SOCIAL_FEATURES = (
    "sn.groups.jaccard",
    "sn.interests.jaccard",
    "sn.graph.cn",
    "sn.graph.jaccard",
    "sn.graph.aa",
    "sn.graph.no",
    "sn.graph.pa",
    "sn.graph.directed",
)
LOCATION_FEATURES = (
    "loc.favored.jaccard",
    "loc.shared.jaccard",
    "loc.monitored.jaccard",
    "loc.graph.cn",
    "loc.graph.jaccard",
    "loc.graph.aa",
    "loc.graph.no",
    "loc.graph.pa",
)
SN_GRAPH_FEATURES = (
    "sn.graph.directed",
    "sn.graph.cn",
    "sn.graph.jaccard",
    "sn.graph.aa",
    "sn.graph.no",
    "sn.graph.pa",
)


def test_criterion_1_similarity_features_match_bruteforce(tmp_path, planted_corpus):
    started = time.monotonic()
    other = tmp_path / "variety"
    generate(SyntheticSpec(users=120, clusters=8, noise=0.3, seed=99), other)
    corpora = [load_corpus(other), planted_corpus]
    features = ("mp.purchases.common", "mp.purchases.total", "mp.purchases.jaccard", *SN_GRAPH_FEATURES)
    for corpus in corpora:
        assert len(corpus.users) <= 200
        users = sorted(corpus.users)
        context = SimilarityContext(corpus)
        # every user is a target and k covers everyone, so both directions of every pair are checked
        for feature_id in features:
            scorer = oracle_scorer(corpus, feature_id)
            for target in users:
                got = context.k_nearest(feature_id, target, len(users)).scored
                assert got == oracle_knn(users, target, len(users), scorer), (feature_id, target)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"similarity oracle sweep took {elapsed:.1f}s"


def test_criterion_2_cf_matches_exhaustive_double_loop(tmp_path):
    generate(SyntheticSpec(users=50, clusters=5, noise=0.1, seed=23), tmp_path)
    corpus = load_corpus(tmp_path)
    context = SimilarityContext(corpus)
    purchase_sets = context.entity_sets("purchases")
    owned = oracles.purchase_sets(corpus.purchases)
    adjacency = oracles.adjacency_from_social(corpus.social)

    def jaccard_purchases(target, candidate):
        return oracles.content_score(owned.get(target, set()), owned.get(candidate, set()), "jaccard")

    def overlap_social(target, candidate):
        return oracles.network_score(adjacency, target, candidate, "no")

    users = sorted(corpus.users)
    for feature_id, score in (
        ("mp.purchases.jaccard", jaccard_purchases),
        ("sn.graph.no", overlap_social),
    ):
        for target in users:
            slice_ = context.k_nearest(feature_id, target, 10)
            expected_neighbors = oracles.knn(users, target, 10, score)
            assert list(slice_.users()) == [u for u, _ in expected_neighbors]
            expected_scores = oracles.cf_product_scores(
                expected_neighbors, owned, owned.get(target, set())
            )
            expected_items = oracles.ranked(expected_scores, 10)
            actual = cf_products(slice_, purchase_sets, 10)
            assert [item for item, _ in actual.items] == [item for item, _ in expected_items]
            for (_, got), (_, want) in zip(actual.items, expected_items):
                assert abs(got - want) < TOL


def test_criterion_3_metric_golden_values():
    from marketrec.evalharness import (
        category_distance,
        diversity_at_k,
        ndcg_at_k,
        precision_at_k,
        recall_at_k,
    )
    from marketrec.corpus import Product

    relevant = {f"r{i}" for i in range(10)}
    hits3 = ["r0", "x1", "r1", "x2", "r2", "x3", "x4", "x5", "x6", "x7"]
    assert abs(recall_at_k(hits3, relevant, 10) - 0.3) < TOL
    assert abs(precision_at_k(hits3, relevant, 10) - 0.3) < TOL
    assert precision_at_k(["r0", "r1"], relevant, 10) == pytest.approx(0.2, abs=TOL)
    assert recall_at_k([], relevant, 10) == 0.0

    # single relevant item at rank 2 with k = 2
    assert abs(ndcg_at_k(["x", "r"], {"r"}, 2) - 0.6309297535714575) < TOL
    assert abs(ndcg_at_k(["r"], {"r"}, 1) - 1.0) < TOL
    rec = ["r1", "x2", "r3", "x4", "x5", "x6", "r7", "x8", "x9", "x10"]
    rel = {"r1", "r3", "r7", "r11", "r12"}
    assert abs(ndcg_at_k(rec, rel, 10) - 0.6217937096682962) < TOL

    pair_distance = {("a", "b"): 0.5, ("a", "c"): 1.0, ("b", "c"): 0.25}

    def dist(i, j):
        if i == j:
            return 0.0
        return pair_distance.get((i, j), pair_distance.get((j, i)))

    assert abs(diversity_at_k(["a", "b", "c"], dist) - 0.5833333333333334) < TOL
    assert diversity_at_k(["a", "b"], lambda i, j: 1.0) == pytest.approx(1.0, abs=TOL)
    assert diversity_at_k(["a", "b"], lambda i, j: 0.0) == 0.0

    both = Product("p1", "s", ("A", "B"))
    assert category_distance(both, Product("p2", "s", ("B", "C"))) == pytest.approx(2 / 3, abs=TOL)
    assert category_distance(both, Product("p3", "s", ("A", "B"))) == 0.0
    assert category_distance(both, Product("p4", "s", ())) == 1.0


def test_criterion_4_protocol_integrity(planted_corpus):
    split = make_split(planted_corpus, seed=PLANTED_SPLIT_SEED)
    assert split.eligible, "fixture must produce eligible users"
    for user in split.eligible:
        assert len(split.test[user]) == 10
    training = with_purchases(planted_corpus, split.training)
    for kind in ("purchases",):
        profiles = entity_sets(training, kind)
        for user, withheld in split.test.items():
            assert profiles[user].isdisjoint(withheld)
    training_pairs = {(p.buyer, p.product) for p in split.training}
    for user, withheld in split.test.items():
        for product in withheld:
            assert (user, product) not in training_pairs
    report = run_experiment(planted_corpus, split, ["most_popular"], "products")
    assert report.rows[0].coverage == 1.0


def test_criterion_5_hybrid_ranking_laws():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(1000):
        lists = {}
        for c in range(rng.randint(1, 4)):
            size = rng.randint(0, 6)
            items = rng.sample(range(12), size)
            scored = sorted(
                ((f"p{i}", round(rng.random(), 4)) for i in items),
                key=lambda kv: (-kv[1], kv[0]),
            )
            lists[f"c{c}"] = normalize_scores(
                RecommendationList(target="t", kind="product", items=tuple(scored))
            )
        weights = {c: round(rng.uniform(0.001, 1.0), 4) for c in lists}
        # single positive component reproduces that component's ranking
        solo_component = sorted(lists)[0]
        solo = weighted_sum_hybrid(
            {solo_component: lists[solo_component]}, {solo_component: weights[solo_component]}, 10
        )
        assert solo.item_ids() == lists[solo_component].item_ids()
        # scaling every weight by a positive constant never changes a ranking
        scale = rng.uniform(1e-3, 1e3)
        base = weighted_sum_hybrid(lists, weights, 10)
        scaled = weighted_sum_hybrid(
            lists, {c: w * scale for c, w in weights.items()}, 10
        )
        assert base.item_ids() == scaled.item_ids()
        checked += 1
    assert checked == 1000


def test_criterion_6_directional_reproduction(planted_dataset, planted_corpus):
    started = time.monotonic()
    directory, manifest = planted_dataset
    assert manifest["spec"]["users"] == 200
    assert manifest["spec"]["clusters"] == 10
    assert manifest["spec"]["noise"] == 0.1
    split = make_split(planted_corpus, seed=PLANTED_SPLIT_SEED)

    # (a) social-graph features all beat the popularity baseline on products
    product_report = run_experiment(
        planted_corpus, split, ["most_popular", *SN_GRAPH_FEATURES], "products"
    )
    by_name = {row.recommender: row for row in product_report.rows}
    baseline = by_name["most_popular"].ndcg
    for feature_id in SN_GRAPH_FEATURES:
        assert by_name[feature_id].ndcg > baseline, feature_id

    # (b) the all-source hybrid matches or beats every per-source hybrid on
    # both category tasks and serves every eligible user
    hybrids = [
        HybridDef("market", MARKET_FEATURES),
        HybridDef("social", SOCIAL_FEATURES),
        HybridDef("location", LOCATION_FEATURES),
        HybridDef("all_sources", MARKET_FEATURES + SOCIAL_FEATURES + LOCATION_FEATURES),
    ]
    for task in ("low_categories", "top_categories"):
        report = run_experiment(planted_corpus, split, hybrids, task)
        rows = {row.recommender: row for row in report.rows}
        combined = rows["all_sources"]
        for source in ("market", "social", "location"):
            assert combined.ndcg >= rows[source].ndcg, (task, source)
        assert combined.coverage == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"directional suite took {elapsed:.1f}s"


def test_criterion_7_reports_are_byte_identical(tmp_path, planted_dataset):
    directory, _ = planted_dataset
    config = tmp_path / "experiment.ini"
    config.write_text(
        "[experiment]\n"
        f"data = {directory}\n"
        f"seed = {PLANTED_SPLIT_SEED}\n"
        "k = 40\n"
        "n = 10\n"
        "task = products\n"
        "\n"
        "[recommenders]\n"
        "ids = most_popular, sn.graph.no, mp.purchases.jaccard\n"
        "\n"
        "[hybrid:pair]\n"
        "components = sn.graph.no, mp.purchases.jaccard\n",
        encoding="utf-8",
    )
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", "--config", str(config), "--out", str(first)]) == EXIT_OK
    assert main(["run", "--config", str(config), "--out", str(second)]) == EXIT_OK
    names = ["report.tsv", "curves.tsv", "meta.tsv"]
    for name in names:
        a = (first / "products" / name).read_bytes()
        b = (second / "products" / name).read_bytes()
        assert a == b, name
    assert (first / "products" / "report.tsv").read_bytes().startswith(b"recommender\t")
