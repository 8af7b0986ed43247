import random

import pytest

from marketrec.corpus import Product, entity_sets, with_purchases
from marketrec.evalharness import (
    CURVE_KS,
    TASKS,
    EvalReport,
    HybridDef,
    _Engine,
    _evaluate,
    _harsh_ndcg,
    category_distance,
    diversity_at_k,
    format_curves_table,
    format_report_table,
    make_split,
    make_weighting_split,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    run_experiment,
    write_report,
)
from marketrec.recommender import RecommendationList, cf_products
from marketrec.simfeatures import DEFAULT_K, SimilarityContext, UnknownFeatureError

from conftest import PLANTED_SPLIT_SEED
from helpers import ALL_RECOMMENDERS, make_corpus
import oracles

APPROX = dict(abs=1e-9)


# --- split protocol ---------------------------------------------------------


def _purchases_corpus(counts):
    """counts: user -> number of distinct products bought."""
    purchases = []
    products = set()
    for user, count in counts.items():
        for i in range(count):
            pid = f"{user}-p{i}"
            products.add(pid)
            purchases.append((user, pid))
    return make_corpus(
        products=[(pid, "s", ()) for pid in sorted(products)], purchases=purchases
    )


def test_split_eligibility_threshold():
    corpus = _purchases_corpus({"few": 5, "border": 10, "ok": 11, "rich": 15})
    split = make_split(corpus, seed=3)
    assert split.eligible == {"ok", "rich"}
    assert len(split.test["ok"]) == 10
    assert len(split.test["rich"]) == 10
    training_by_user = {}
    for p in split.training:
        training_by_user.setdefault(p.buyer, set()).add(p.product)
    assert len(training_by_user["few"]) == 5
    assert len(training_by_user["border"]) == 10
    assert len(training_by_user["ok"]) == 1
    assert len(training_by_user["rich"]) == 5
    for user in split.eligible:
        assert split.test[user].isdisjoint(training_by_user[user])


def test_split_deterministic_per_seed():
    corpus = _purchases_corpus({"a": 14, "b": 20, "c": 12})
    first = make_split(corpus, seed=9)
    second = make_split(corpus, seed=9)
    assert first.test == second.test
    assert first.training == second.training
    assert make_split(corpus, seed=10).test != first.test


def test_split_keeps_duplicate_rows_of_retained_products():
    corpus = make_corpus(
        products=[(f"p{i}", "s", ()) for i in range(12)],
        purchases=[("u", f"p{i}") for i in range(12)] + [("u", "p0"), ("u", "p0")],
    )
    split = make_split(corpus, seed=0)
    rows = [p for p in split.training if p.buyer == "u"]
    if "p0" not in split.test["u"]:
        assert sum(1 for p in rows if p.product == "p0") == 3
    for p in rows:
        assert p.product not in split.test["u"]


def test_weighting_split_nested_in_training():
    corpus = _purchases_corpus({"a": 25, "b": 13, "c": 11, "d": 4})
    outer = make_split(corpus, seed=1)
    inner = make_weighting_split(outer, seed=2)
    assert inner.eligible <= outer.eligible
    assert "c" not in inner.eligible  # only one training product left
    outer_training = {(p.buyer, p.product) for p in outer.training}
    for user, withheld in inner.test.items():
        assert 1 <= len(withheld) <= 10
        for product in withheld:
            assert (user, product) in outer_training
            assert product not in outer.test[user]
    inner_training_by_user = {}
    for p in inner.training:
        inner_training_by_user.setdefault(p.buyer, set()).add(p.product)
    for user in inner.eligible:
        assert len(inner_training_by_user[user]) >= 1
    # a: 15 training products -> 10 withheld; b: 3 training -> 2 withheld
    assert len(inner.test["a"]) == 10
    assert len(inner.test["b"]) == 2


# --- metrics ----------------------------------------------------------------


def test_recall_golden_values():
    relevant = {f"r{i}" for i in range(10)}
    recommended = ["r0", "x", "r1", "y", "r2", "z"]
    assert recall_at_k(recommended, relevant, 10) == pytest.approx(0.3, **APPROX)
    assert recall_at_k(["x", "y"], relevant, 10) == 0.0
    assert recall_at_k(sorted(relevant) + ["x"], relevant, 11) == pytest.approx(1.0, **APPROX)
    assert recall_at_k(["x"], set(), 10) == 0.0


def test_precision_golden_values():
    relevant = {"r1", "r2"}
    assert precision_at_k(["r1", "x", "r2", "y"] + ["z"] * 6, relevant, 10) == pytest.approx(0.2, **APPROX)
    assert precision_at_k([], relevant, 10) == 0.0
    # denominator stays k even for short lists
    assert precision_at_k(["r1", "r2"], relevant, 10) == pytest.approx(0.2, **APPROX)
    with pytest.raises(ValueError):
        precision_at_k(["r1"], relevant, 0)


def test_ndcg_golden_values():
    assert ndcg_at_k(["r"], {"r"}, 1) == pytest.approx(1.0, **APPROX)
    # single relevant item at rank 2 with k=2 (frozen from the naive oracle)
    assert ndcg_at_k(["x", "r"], {"r"}, 2) == pytest.approx(0.6309297535714575, **APPROX)
    assert ndcg_at_k(["x", "y"], {"r"}, 2) == 0.0
    assert ndcg_at_k([], set(), 5) == 0.0
    rec = ["r1", "x2", "r3", "x4", "x5", "x6", "r7", "x8", "x9", "x10"]
    rel = {"r1", "r3", "r7", "r11", "r12"}
    assert ndcg_at_k(rec, rel, 10) == pytest.approx(0.6217937096682962, **APPROX)
    assert ndcg_at_k(["x", "r1", "r2"], {"r1", "r2"}, 3) == pytest.approx(0.6934264036172708, **APPROX)


def test_ndcg_is_one_iff_top_positions_relevant():
    relevant = {"a", "b"}
    assert ndcg_at_k(["a", "b", "x"], relevant, 3) == pytest.approx(1.0, **APPROX)
    assert ndcg_at_k(["a", "x", "b"], relevant, 3) < 1.0


def test_category_distance():
    same = Product("p1", "s", ("A", "B"))
    assert category_distance(same, same) == 0.0
    twin = Product("p2", "s", ("A", "B"))
    assert category_distance(same, twin) == 0.0
    disjoint = Product("p3", "s", ("C",))
    assert category_distance(same, disjoint) == 1.0
    overlap = Product("p4", "s", ("B", "C"))
    assert category_distance(same, overlap) == pytest.approx(2 / 3, **APPROX)
    bare = Product("p5", "s", ())
    assert category_distance(same, bare) == 1.0
    assert category_distance(bare, bare) == 0.0


def test_diversity_golden_values():
    distances = {("a", "b"): 0.5, ("a", "c"): 1.0, ("b", "c"): 0.25}

    def dist(i, j):
        if i == j:
            return 0.0
        return distances.get((i, j), distances.get((j, i)))

    assert diversity_at_k(["a", "b", "c"], dist) == pytest.approx(0.5833333333333334, **APPROX)
    assert diversity_at_k(["a", "b"], lambda i, j: 0.0) == 0.0
    assert diversity_at_k(["a", "b"], lambda i, j: 1.0) == 1.0
    assert diversity_at_k(["a"], dist) == 0.0
    assert diversity_at_k([], dist) == 0.0
    # k truncation applies before pairing
    assert diversity_at_k(["a", "b", "c"], dist, 2) == pytest.approx(0.5, **APPROX)


# --- experiment runner --------------------------------------------------------


def test_perfect_recommender_scores_one(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    assert split.eligible
    engine = _Engine(medium_corpus, split, 10, 10)

    def perfect(user):
        items = tuple((item, 1.0) for item in sorted(split.test[user]))
        lst = RecommendationList(target=user, kind="product", items=items)
        return lst, lst

    row, curves, _ = _evaluate(engine, "perfect", perfect, "products", "harsh")
    assert row.ndcg == pytest.approx(1.0, **APPROX)
    assert row.recall == pytest.approx(1.0, **APPROX)
    assert row.precision == pytest.approx(1.0, **APPROX)
    assert row.coverage == 1.0


def test_most_popular_full_coverage(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    report = run_experiment(medium_corpus, split, ["most_popular"], "products")
    assert report.rows[0].coverage == 1.0
    assert report.metadata["eligible_users"] == str(len(split.eligible))


def test_withheld_products_absent_from_training_profiles(medium_corpus):
    split = make_split(medium_corpus, seed=8)
    training = with_purchases(medium_corpus, split.training)
    profiles = entity_sets(training, "purchases")
    for user, withheld in split.test.items():
        assert profiles[user].isdisjoint(withheld)
    # social and location tables are untouched by the split
    assert training.social == medium_corpus.social
    assert training.locations == medium_corpus.locations


def test_metrics_match_naive_reimplementation(medium_corpus):
    knn_k, n = 10, 10
    split = make_split(medium_corpus, seed=4)
    report = run_experiment(
        medium_corpus, split, ["mp.purchases.jaccard"], "products", knn_k=knn_k, list_length=n
    )
    row = report.rows[0]

    training = with_purchases(medium_corpus, split.training)
    context = SimilarityContext(training)
    purchase_sets = context.entity_sets("purchases")
    eligible = sorted(split.eligible)
    recall_sum = precision_sum = ndcg_sum = diversity_sum = 0.0
    served = 0
    for user in eligible:
        slice_ = context.k_nearest("mp.purchases.jaccard", user, knn_k)
        ids = list(cf_products(slice_, purchase_sets, n).item_ids())
        relevant = split.test[user]
        if ids:
            served += 1
        recall_sum += oracles.recall(ids, relevant, n)
        precision_sum += oracles.precision(ids, relevant, n)
        ndcg_sum += oracles.ndcg(ids, relevant, n)
        diversity_sum += oracles.diversity(
            ids,
            lambda a, b: oracles.path_distance(
                medium_corpus.products[a].category_path,
                medium_corpus.products[b].category_path,
                same_item=(a == b),
            ),
        )
    total = len(eligible)
    assert row.recall == pytest.approx(recall_sum / total, **APPROX)
    assert row.precision == pytest.approx(precision_sum / total, **APPROX)
    assert row.ndcg == pytest.approx(ndcg_sum / total, **APPROX)
    assert row.diversity == pytest.approx(diversity_sum / total, **APPROX)
    assert row.coverage == pytest.approx(served / total, **APPROX)


def test_recall_curve_monotone_in_k(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    report = run_experiment(medium_corpus, split, ["sn.graph.cn", "most_popular"], "products")
    by_rec = {}
    for point in report.curves:
        by_rec.setdefault(point.recommender, []).append((point.k, point.recall))
    for points in by_rec.values():
        ks = [k for k, _ in sorted(points)]
        assert ks == list(range(1, 11))
        values = [value for _, value in sorted(points)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_category_task_relevance_and_zeroes():
    # one eligible user whose withheld products are all uncategorized
    products = [(f"p{i}", "s", ()) for i in range(12)]
    products += [("q1", "s", ("A",)), ("q2", "s", ("A",))]
    purchases = [("u", f"p{i}") for i in range(12)]
    purchases += [("v", "q1"), ("v", "q2"), ("w", "q1")]
    corpus = make_corpus(products=products, purchases=purchases)
    split = make_split(corpus, seed=0)
    assert split.eligible == {"u"}
    report = run_experiment(corpus, split, ["most_popular"], "low_categories")
    row = report.rows[0]
    assert row.ndcg == 0.0 and row.recall == 0.0 and row.precision == 0.0
    assert row.coverage == 1.0  # product recommendations still exist


def _curve_corpus():
    """Seven buyers of 14 of the first 30 products, plus "bare", who buys only uncategorized ones."""
    rng = random.Random(5)
    products = [(f"c{i:02d}", "s", (f"T{i % 3}", f"L{i}")) for i in range(22)]
    products += [(f"x{i}", "s", ()) for i in range(8)] + [(f"y{i:02d}", "s", ()) for i in range(11)]
    purchases = [(f"u{u}", pid) for u in range(7) for pid, _, _ in rng.sample(products[:30], 14)]
    purchases += [("bare", f"y{i:02d}") for i in range(11)]
    return make_corpus(products=products, purchases=purchases)


@pytest.mark.parametrize("list_length", [3, 15])
@pytest.mark.parametrize("task", TASKS)
def test_curve_points_equal_mean_oracle_recall_and_precision(task, list_length):
    corpus = _curve_corpus()
    split = make_split(corpus, seed=2)
    assert "bare" in split.eligible and len(split.eligible) == 8
    recommenders = ["most_popular", "mp.purchases.jaccard"]
    report = run_experiment(corpus, split, recommenders, task, knn_k=3, list_length=list_length)
    engine = _Engine(corpus, split, 3, list_length)
    level = {"products": None, "top_categories": 0, "low_categories": -1}[task]
    lengths = set()
    for rec_id in recommenders:
        recall_sums, precision_sums = [0.0] * 10, [0.0] * 10
        for user in sorted(split.eligible):
            ids = engine.task_list(rec_id, task, user).item_ids()
            lengths.add(len(ids))
            relevant = set(split.test[user])
            if level is not None:
                paths = (corpus.products[p].category_path for p in split.test[user])
                relevant = {path[level] for path in paths if path}
                if user == "bare":
                    assert relevant == set()
            for k in CURVE_KS:
                recall_sums[k - 1] += oracles.recall(ids, relevant, k)
                precision_sums[k - 1] += oracles.precision(ids, relevant, k)
        points = [(p.k, p.recall, p.precision) for p in report.curves if p.recommender == rec_id]
        total = len(split.eligible)
        assert points == [
            (k, recall_sums[k - 1] / total, precision_sums[k - 1] / total) for k in CURVE_KS
        ]
    # three top categories only; otherwise some lists run past the curve's k = 10
    if list_length == 15 and task != "top_categories":
        assert max(lengths) > 10


def test_ndcg_only_weight_quality_equals_full_evaluation(planted_corpus):
    split = make_split(planted_corpus, PLANTED_SPLIT_SEED)
    (derived,) = [r for r in ALL_RECOMMENDERS if isinstance(r, HybridDef) and r.weights is None]
    for task in TASKS:
        inner = _Engine(planted_corpus, make_weighting_split(split, split.seed + 1), DEFAULT_K, 10)
        for component in derived.components:

            def produce(user):
                return inner.product_list(component, user), inner.task_list(component, task, user)

            expected = _evaluate(inner, component, produce, task, "harsh")[0].ndcg
            assert _harsh_ndcg(inner, component, task) == expected


def test_harsh_vs_skip_averaging():
    # two eligible users; one shares a product with a neighbour, one does not
    products = [(f"p{i}", "s", ()) for i in range(26)]
    purchases = [("lone", f"p{i}") for i in range(12)]
    purchases += [("joiner", f"p{i + 12}") for i in range(12)]
    purchases += [("friend", f"p{i + 12}") for i in range(10)]
    corpus = make_corpus(products=products, purchases=purchases)
    split = make_split(corpus, seed=6)
    assert split.eligible == {"joiner", "lone"}
    harsh = run_experiment(corpus, split, ["mp.purchases.jaccard"], "products", averaging="harsh")
    skip = run_experiment(corpus, split, ["mp.purchases.jaccard"], "products", averaging="skip")
    served = int(harsh.metadata["served.mp.purchases.jaccard"])
    assert served == 1
    assert harsh.rows[0].coverage == skip.rows[0].coverage == 0.5
    if harsh.rows[0].recall > 0:
        assert skip.rows[0].recall == pytest.approx(harsh.rows[0].recall * 2, **APPROX)


def test_all_reported_metrics_within_bounds(medium_corpus):
    split = make_split(medium_corpus, seed=2)
    hybrid = HybridDef("mix", ("mp.purchases.jaccard", "sn.graph.no"))
    for task in ("products", "low_categories", "top_categories"):
        report = run_experiment(
            medium_corpus, split, ["most_popular", "sn.graph.aa", hybrid], task
        )
        for row in report.rows:
            for value in (row.ndcg, row.precision, row.recall, row.diversity, row.coverage):
                assert 0.0 <= value <= 1.0
        for point in report.curves:
            assert 0.0 <= point.recall <= 1.0
            assert 0.0 <= point.precision <= 1.0


def test_product_lists_never_contain_training_purchases(medium_corpus):
    split = make_split(medium_corpus, seed=2)
    engine = _Engine(medium_corpus, split, 10, 10)
    from marketrec.evalharness import _hybrid_producer
    from marketrec.recommender import HybridWeights

    hybrid = HybridDef("mix", ("mp.purchases.jaccard", "sn.graph.cn"))
    weights = HybridWeights({"mp.purchases.jaccard": 0.5, "sn.graph.cn": 0.5})
    produce = _hybrid_producer(engine, hybrid, weights, "products")
    for user in sorted(split.eligible)[:15]:
        owned = engine.purchase_sets.get(user, frozenset())
        for rec_id in ("most_popular", "mp.purchases.jaccard", "sn.graph.cn"):
            assert owned.isdisjoint(engine.product_list(rec_id, user).item_ids())
        combined, _ = produce(user)
        assert owned.isdisjoint(combined.item_ids())


def test_unknown_feature_id_rejected(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    with pytest.raises(UnknownFeatureError, match="mp.bogus.jaccard"):
        run_experiment(medium_corpus, split, ["mp.bogus.jaccard"], "products")
    with pytest.raises(ValueError):
        run_experiment(medium_corpus, split, ["most_popular"], "nonsense_task")


def test_explicit_weights_must_cover_every_component(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    hybrid = HybridDef(
        "partial", ("mp.purchases.jaccard", "sn.graph.no"), weights={"mp.purchases.jaccard": 1.0}
    )
    with pytest.raises(ValueError, match="'partial' needs one weight per component"):
        run_experiment(medium_corpus, split, [hybrid], "products")


def test_list_length_below_one_is_named(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    with pytest.raises(ValueError, match="list_length must be >= 1, got 0"):
        run_experiment(medium_corpus, split, ["most_popular"], "products", list_length=0)


def test_knn_k_below_one_rejected_without_knn_recommender(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    with pytest.raises(ValueError, match="knn_k must be >= 1, got 0"):
        run_experiment(medium_corpus, split, ["most_popular"], "products", knn_k=0)


def test_duplicate_recommender_ids_rejected(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    twice = ["sn.graph.no", "most_popular", "sn.graph.no"]
    with pytest.raises(ValueError, match="duplicate recommender ids: sn.graph.no"):
        run_experiment(medium_corpus, split, twice, "products")
    hybrid = HybridDef("most_popular", ("sn.graph.no",))
    with pytest.raises(ValueError, match="duplicate recommender ids: most_popular"):
        run_experiment(medium_corpus, split, ["most_popular", hybrid], "products")


def test_explicit_hybrid_weights_skip_inner_split(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    hybrid = HybridDef(
        "fixed", ("mp.purchases.jaccard", "sn.graph.cn"),
        weights={"mp.purchases.jaccard": 0.5, "sn.graph.cn": 0.5},
    )
    report = run_experiment(medium_corpus, split, [hybrid], "products")
    assert "weighting_seed" not in report.metadata
    assert report.metadata["weight.fixed.sn.graph.cn"] == "0.500000"
    assert report.rows[0].recommender == "fixed"


def test_derived_hybrid_weights_recorded(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    hybrid = HybridDef("auto", ("sn.graph.cn", "loc.graph.cn"))
    report = run_experiment(medium_corpus, split, [hybrid], "products", weighting_seed=99)
    assert report.metadata["weighting_seed"] == "99"
    for component in hybrid.components:
        assert f"weight.auto.{component}" in report.metadata


def test_single_component_hybrid_matches_component(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    hybrid = HybridDef("solo", ("sn.graph.no",), weights={"sn.graph.no": 0.37})
    report = run_experiment(medium_corpus, split, ["sn.graph.no", hybrid], "products")
    single, solo = report.rows
    assert solo.ndcg == pytest.approx(single.ndcg, **APPROX)
    assert solo.recall == pytest.approx(single.recall, **APPROX)
    assert solo.precision == pytest.approx(single.precision, **APPROX)
    assert solo.coverage == single.coverage


# --- report serialization -----------------------------------------------------


def test_report_tables_and_files(tmp_path):
    from marketrec.evalharness import CurvePoint, ReportRow

    report = EvalReport(task="products", list_length=10)
    report.rows.append(ReportRow("most_popular", 0.1, 0.2, 0.3, 0.4, 1.0))
    report.curves.append(CurvePoint("most_popular", 1, 0.05, 0.5))
    report.metadata["task"] = "products"
    table = format_report_table(report)
    assert table.splitlines()[0] == "recommender\tndcg@10\tp@10\tr@10\td@10\tuc"
    assert "most_popular\t0.100000\t0.200000\t0.300000\t0.400000\t1.000000" in table
    curves = format_curves_table(report)
    assert "most_popular\t1\t0.050000\t0.500000" in curves
    written = write_report(report, tmp_path / "out")
    assert [p.name for p in written] == ["report.tsv", "curves.tsv", "meta.tsv"]
    assert (tmp_path / "out" / "report.tsv").read_text() == table
