import gc
import hashlib
import random
import warnings
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marketrec import evalharness, simfeatures
from marketrec.corpus import PURCHASE_KINDS, Product, entity_sets, with_purchases
from marketrec.evalharness import (
    AVERAGING_MODES,
    CURVE_KS,
    TASKS,
    EvalReport,
    HybridDef,
    ReportRow,
    Split,
    _Engine,
    _evaluate,
    _harsh_ndcg,
    category_distance,
    diversity_at_k,
    format_curves_table,
    format_metadata_table,
    format_report_table,
    make_split,
    make_weighting_split,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    run_experiment,
    write_report,
)
from marketrec.recommender import (
    TASK_LISTS,
    cf_categories,
    cf_products,
    most_popular,
    normalize_scores,
    weighted_sum_hybrid,
)
from marketrec.simfeatures import (
    ALL_FEATURE_IDS,
    DEFAULT_K,
    EntitySets,
    SimilarityContext,
    UnknownFeatureError,
    parse_feature_id,
)

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


def _protocol_split(rows, seed, count):
    """The withholding rule spelled out over (buyer, product) rows, by brute force.

    One generator per split; users in id order; each user with a positive
    count(user, t) of its t distinct products draws from them in id order.
    """
    rng = random.Random(seed)
    test = {}
    for user in sorted({buyer for buyer, _ in rows}):
        distinct = sorted({product for buyer, product in rows if buyer == user})
        size = count(user, len(distinct))
        if size > 0:
            test[user] = frozenset(rng.sample(distinct, size))
    training = [row for row in rows if row[1] not in test.get(row[0], ())]
    return test, training


@given(
    users=st.lists(
        st.tuples(st.sampled_from((1, 2, 10, 11, 12)), st.lists(st.integers(0, 11), max_size=4)),
        min_size=1,
        max_size=6,
    ),
    order=st.randoms(use_true_random=False),
    seed=st.integers(0, 2**32),
)
def test_splits_equal_the_protocol_spelled_out(users, order, seed):
    rows = []
    for u, (distinct, repeats) in enumerate(users):
        rows += [(f"u{u}", f"p{i}") for i in range(distinct)]
        rows += [(f"u{u}", f"p{i % distinct}") for i in repeats]
    order.shuffle(rows)
    corpus = make_corpus(products=[(f"p{i}", "s", ()) for i in range(12)], purchases=rows)

    split = make_split(corpus, seed)
    test, training = _protocol_split(rows, seed, lambda user, t: 10 if t >= 11 else 0)
    assert split.test == test
    assert [(p.buyer, p.product) for p in split.training] == training
    assert split.eligible == frozenset(test)

    inner = make_weighting_split(split, seed + 1)
    inner_test, inner_training = _protocol_split(
        training, seed + 1, lambda user, t: min(10, t - 1) if user in test else 0
    )
    assert inner.test == inner_test
    assert [(p.buyer, p.product) for p in inner.training] == inner_training
    assert inner.eligible == frozenset(inner_test)


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


def test_metrics_count_a_repeated_item_once_at_its_first_position():
    assert recall_at_k(["a", "a"], {"a"}, 2) == 1.0
    assert precision_at_k(["a", "a"], {"a"}, 2) == 0.5
    assert ndcg_at_k(["a", "a"], {"a"}, 2) == 1.0
    assert ndcg_at_k(["x", "a", "a"], {"a"}, 3) == ndcg_at_k(["x", "a", "y"], {"a"}, 3)
    assert recall_at_k(["a", "b", "a", "b"], {"a", "b", "c"}, 4) == pytest.approx(2 / 3, **APPROX)


@given(
    items=st.lists(st.sampled_from("abcdxy"), max_size=12),
    relevant=st.sets(st.sampled_from("abcdz")),
    k=st.integers(1, 13),
)
def test_metrics_equal_those_of_the_list_without_repeats(items, relevant, k):
    # a repeat scores like a non-relevant item in its place
    seen = set()
    unique = []
    for i, item in enumerate(items):
        unique.append(item if item not in seen else f"filler{i}")
        seen.add(item)
    for metric in (recall_at_k, precision_at_k, ndcg_at_k):
        assert metric(items, relevant, k) == metric(unique, relevant, k)


@pytest.mark.parametrize("metric", [recall_at_k, precision_at_k, ndcg_at_k])
@pytest.mark.parametrize("k", [0, -1])
def test_metrics_reject_k_below_one(metric, k):
    with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
        metric(("a", "b", "c"), {"a", "c"}, k)


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


def _neumaier_sum(values):
    """Compensated float sum: the algorithm builtin sum uses from Python 3.12 on."""
    total = compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("length", range(1, 11))
def test_perfect_ndcg_is_one_under_compensated_sum(monkeypatch, length):
    # The result must not depend on how the running Python's builtin sum rounds.
    monkeypatch.setattr(evalharness, "sum", _neumaier_sum, raising=False)
    items = [f"r{i}" for i in range(length)]
    assert ndcg_at_k(items, set(items), 10) == 1.0


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


@pytest.mark.parametrize("k", [-1, -2])
def test_diversity_rejects_negative_k(k):
    # a negative k would slice from the end: k=-1 measured ("a", "b") alone
    with pytest.raises(ValueError, match="k must be >= 0"):
        diversity_at_k(("a", "b", "c"), lambda i, j: float(i != j), k)


DIVERSITY_IDS = "abcdef"
DIVERSITY_PAIRS = list(combinations_with_replacement(DIVERSITY_IDS, 2))


@given(
    items=st.lists(st.sampled_from(DIVERSITY_IDS), max_size=12),
    table=st.lists(
        st.floats(0.0, 1.0), min_size=len(DIVERSITY_PAIRS), max_size=len(DIVERSITY_PAIRS)
    ),
    k=st.one_of(st.none(), st.integers(0, 13)),
)
def test_diversity_measures_each_pair_once_and_sums_like_the_oracle(items, table, k):
    distances = dict(zip(DIVERSITY_PAIRS, table))
    calls = []

    def dist(a, b):
        calls.append((a, b))
        return distances[min(a, b), max(a, b)]

    result = diversity_at_k(items, dist, k)
    m = len(items[:k])
    assert len(calls) == m * (m - 1) // 2
    assert result == oracles.diversity(items[:k], dist)


def test_diversity_rows_look_each_class_pair_up_once_across_passes():
    rng = random.Random(3)
    rows = [rng.sample(range(14), rng.randint(0, 6)) + [rng.randrange(14)] * rng.randint(0, 1) for _ in range(300)]
    codes = np.array([(row + [-1] * 7)[:7] for row in rows], dtype=np.int32)  # -1 pads, as the engine's blocks
    assert len(codes) > 2 * evalharness._DIVERSITY_ROWS  # three passes

    def value(a, b):
        return ((a * 7 + b * 3) % 11) / 10

    calls = Counter()

    def distance(a, b):
        calls[a, b] += 1
        return value(a, b)

    result = evalharness._diversity_rows(codes, distance)
    present = {(min(x, y), max(x, y)) for row in rows for i, x in enumerate(row) for y in row[i + 1 :]}
    assert set(calls) == present and set(calls.values()) == {1}  # a repeated code pairs with itself too
    assert result.tolist() == [oracles.diversity(row, lambda a, b: value(min(a, b), max(a, b))) for row in rows]


def _column(engine, rec, kind):
    """Each eligible user's list in the engine's column of ``rec`` and ``kind``: its codes read through the kind's
    item table as (id, score) pairs, pads dropped."""
    table = list(engine.tables[kind])
    codes, scores = engine.lists(rec, kind)
    assert codes.shape == scores.shape == (len(engine.eligible), min(engine.n, len(table))) and codes.dtype == np.int32
    assert (np.diff((codes >= 0).astype(int), axis=1) <= 0).all()  # -1 pads only trail a row
    return [tuple((table[c], s) for c, s in zip(*row) if c >= 0) for row in zip(codes.tolist(), scores.tolist())]


def test_class_distance_equals_path_distance(small_corpus):
    engine = _Engine(small_corpus, make_split(small_corpus, seed=3), DEFAULT_K, 10)
    assert "category_classes" not in vars(engine)  # built on first use
    classes, distance = engine.category_classes
    table = list(engine.tables["product"])
    assert len(classes) == len(table) + 1 and classes[-1] == -1  # one code per product position, then a pad's -1
    codes = dict(zip(table, classes.tolist()))
    products = [small_corpus.products[p] for p in table]
    paths = Counter(p.category_path for p in products)
    # uncategorized products and distinct products sharing a path both occur
    assert paths[()] >= 2 and any(count >= 2 for path, count in paths.items() if path)
    for _ in range(2):  # the second round reads every distance from the cache
        for a in products:
            for b in products:
                if a.id != b.id:
                    expected = oracles.path_distance(a.category_path, b.category_path, same_item=False)
                    assert distance(codes[a.id], codes[b.id]) == expected
    # at most one cache entry per ordered pair of category-set classes
    classes = len(set(codes.values()))
    assert classes == len({frozenset(path) for path in paths})
    assert distance.cache_info().currsize <= classes**2


def test_engine_lists_never_repeat_an_item(planted_corpus):
    # diversity over class codes and the running curve hit count both rely on this
    split = make_split(planted_corpus, PLANTED_SPLIT_SEED)
    engine = _Engine(planted_corpus, split, DEFAULT_K, 10)
    inner = _Engine(planted_corpus, make_weighting_split(split, split.seed + 1), DEFAULT_K, 10, outer=engine)
    (derived,) = [r for r in ALL_RECOMMENDERS if isinstance(r, HybridDef) and r.weights is None]
    (explicit,) = [r for r in ALL_RECOMMENDERS if isinstance(r, HybridDef) and r.weights is not None]
    for task in TASKS:
        weights = {c: _harsh_ndcg(inner, c, task) for c in derived.components}
        assert sum(w > 0 for w in weights.values()) >= 2
        recommenders = ["most_popular", *ALL_FEATURE_IDS, explicit, replace(derived, weights=weights)]
        long_lists = 0
        for rec in recommenders:
            for user, task_list in zip(engine.eligible, _column(engine, rec, TASK_LISTS[task]), strict=True):
                ids = [item for item, _ in task_list]
                assert len(set(ids)) == len(ids), (rec, task, user)
                long_lists += len(ids) >= 2
        assert long_lists >= len(recommenders) * len(split.eligible) // 2
    assert "category_classes" not in vars(inner)  # the weighting engine measures no diversity


# --- experiment runner --------------------------------------------------------


def test_perfect_recommender_scores_one(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    table = _Engine(medium_corpus, split, 10, 10).tables["product"]
    # a list can only name training products: keep the users whose withheld products all are
    listable = sorted(user for user in split.eligible if split.test[user] <= table.keys())
    assert 10 <= len(listable) < len(split.eligible)
    split = Split(split.training, {user: split.test[user] for user in listable}, frozenset(listable), split.seed)
    engine = _Engine(medium_corpus, split, 10, 10)
    # the engine serves "perfect" from its column cache: each user's withheld products, in eligible order
    codes = np.array([sorted(table[p] for p in split.test[user]) for user in engine.eligible], np.int32)
    engine._lists["perfect", "product"] = codes, np.ones(codes.shape)
    for rec in ("perfect", HybridDef("mix", ("perfect",), weights={"perfect": 1.0})):
        row, curves, _ = _evaluate(engine, rec, "products", "harsh")
        assert row.ndcg == pytest.approx(1.0, **APPROX)
        assert row.recall == pytest.approx(1.0, **APPROX)
        assert row.precision == pytest.approx(1.0, **APPROX)
        assert row.coverage == 1.0


def test_every_feature_product_list_goes_through_evalharness_cf_products(monkeypatch, medium_corpus):
    """The engine builds CF lists in blocks, but each product list still calls the name a tracer or test patches."""
    split = make_split(medium_corpus, seed=4)
    recommenders = ["most_popular", "mp.purchases.jaccard", "sn.graph.aa"]
    plain = format_report_table(run_experiment(medium_corpus, split, recommenders, "products"))
    targets = Counter()

    def reversed_cf(slice_, purchase_sets, n=10):
        targets[slice_.target] += 1
        made = cf_products(slice_, purchase_sets, n)
        return replace(made, items=made.items[::-1])

    monkeypatch.setattr(evalharness, "cf_products", reversed_cf)
    for task in ("products", "low_categories"):  # a category task reads product lists too
        targets.clear()
        run_experiment(medium_corpus, split, recommenders, task)
        assert targets == Counter({user: 2 for user in split.eligible})  # once per feature and eligible user
    assert format_report_table(run_experiment(medium_corpus, split, recommenders, "products")) != plain


def test_one_cf_column_is_one_block_when_the_cell_bound_allows(monkeypatch, medium_corpus):
    """CF_BLOCK_CELLS alone sizes a block: with room for every row, a column's sums come from one call."""
    split = make_split(medium_corpus, seed=4)
    kept, keep = [], EntitySets.keep_cf_sums
    monkeypatch.setattr(EntitySets, "keep_cf_sums", lambda self, slices: kept.append(keep(self, slices)) or kept[-1])
    monkeypatch.setattr(simfeatures, "CF_BLOCK_CELLS", 1 << 40)
    run_experiment(medium_corpus, split, ["mp.purchases.jaccard"], "products")
    assert kept == [len(split.eligible)] and len(split.eligible) > 32


def test_engine_rows_equal_the_public_one_row_functions(medium_corpus):
    """Every engine row, read through its kind's item table, equals the list that the public function makes alone."""
    split = make_split(medium_corpus, seed=4)
    engine = _Engine(medium_corpus, split, DEFAULT_K, 10)
    inner = _Engine(medium_corpus, make_weighting_split(split, split.seed + 1), DEFAULT_K, 10, outer=engine)
    features = ("mp.purchases.jaccard", "sn.graph.aa")
    weights = {"most_popular": 0.25, features[0]: 0.0, features[1]: 1.0}
    explicit = HybridDef("explicit", ("most_popular", *features), weights)
    derived = HybridDef("derived", ("most_popular", *features))
    sets, n = engine.purchase_sets, engine.n
    for task, kind in TASK_LISTS.items():
        ranking = most_popular(engine.training, kind, None).items

        def one_row(rec, user):
            if rec == "most_popular":
                return most_popular(engine.training, kind, n, owned=sets.get(user, frozenset()), ranking=ranking)
            if kind == "product":
                return cf_products(engine.slice_for(rec, user), sets, n)
            return cf_categories(engine.slice_for(rec, user), medium_corpus, sets, kind, n)

        weighted = replace(derived, weights={c: _harsh_ndcg(inner, c, task) for c in derived.components})
        assert sum(w > 0 for w in weighted.weights.values()) >= 2
        for rec in ("most_popular", *features, explicit, weighted):
            for user, row in zip(engine.eligible, _column(engine, rec, kind), strict=True):
                if isinstance(rec, HybridDef):
                    lists = {c: normalize_scores(one_row(c, user)) for c in rec.components}
                    expected = weighted_sum_hybrid(lists, rec.weights, n)
                else:
                    expected = one_row(rec, user)
                assert row == expected.items, (rec, kind, user)


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


def _oracle_relevant(corpus, task, products):
    """The withheld products, or on a category task their top or lowest categories."""
    if task == "products":
        return set(products)
    level = {"top_categories": 0, "low_categories": -1}[task]
    paths = (corpus.products[p].category_path for p in products)
    return {path[level] for path in paths if path}


@pytest.mark.parametrize("list_length", [3, 10, 15])
@pytest.mark.parametrize("task", TASKS)
def test_metrics_match_naive_reimplementation(monkeypatch, medium_corpus, task, list_length):
    monkeypatch.setattr(evalharness, "_DIVERSITY_ROWS", 7)  # several diversity passes, the last one short
    knn_k, n = 10, list_length
    split = make_split(medium_corpus, seed=4)
    report = run_experiment(
        medium_corpus, split, ["mp.purchases.jaccard"], task, knn_k=knn_k, list_length=n
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
        product_ids = list(cf_products(slice_, purchase_sets, n).item_ids())
        ids = product_ids
        if task != "products":
            kind = TASK_LISTS[task]
            ids = list(cf_categories(slice_, medium_corpus, purchase_sets, kind, n).item_ids())
        relevant = _oracle_relevant(medium_corpus, task, split.test[user])
        if product_ids:
            served += 1
        recall_sum += oracles.recall(ids, relevant, n)
        precision_sum += oracles.precision(ids, relevant, n)
        ndcg_sum += oracles.ndcg(ids, relevant, n)
        diversity_sum += oracles.diversity(
            product_ids,
            lambda a, b: oracles.path_distance(
                medium_corpus.products[a].category_path,
                medium_corpus.products[b].category_path,
                same_item=(a == b),
            ),
        )
    total = len(eligible)
    assert row.recall == recall_sum / total
    assert row.precision == precision_sum / total
    assert row.ndcg == ndcg_sum / total
    assert row.diversity == diversity_sum / total
    assert row.coverage == served / total


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


def _uncategorized_corpus():
    """One eligible user, "u", whose withheld products are all uncategorized."""
    products = [(f"p{i}", "s", ()) for i in range(12)]
    products += [("q1", "s", ("A",)), ("q2", "s", ("A",))]
    purchases = [("u", f"p{i}") for i in range(12)]
    purchases += [("v", "q1"), ("v", "q2"), ("w", "q1")]
    return make_corpus(products=products, purchases=purchases)


def _ineligible_corpus():
    """Two buyers of at most 10 products each, so no user is eligible."""
    products = [(f"p{i}", "s", ("A", f"B{i % 2}")) for i in range(12)]
    purchases = [("u", f"p{i}") for i in range(10)] + [("v", "p0"), ("v", "p11")]
    return make_corpus(products=products, purchases=purchases)


def test_category_task_relevance_and_zeroes():
    corpus = _uncategorized_corpus()
    split = make_split(corpus, seed=0)
    assert split.eligible == {"u"}
    report = run_experiment(corpus, split, ["most_popular"], "low_categories")
    row = report.rows[0]
    assert row.ndcg == 0.0 and row.recall == 0.0 and row.precision == 0.0
    assert row.coverage == 1.0  # product recommendations still exist


# digest: sha256 of the report, curves and meta tables of every task under both
# averaging modes, pinned from a plain loop over each list's metrics
@pytest.mark.parametrize(
    "make, digest",
    [
        # empty relevant sets on the category tasks
        (_uncategorized_corpus, "0e883dee4a70887b3b88e6e614de5402a5c47964c8c84e86ddb1c9aa51df7994"),
        # no eligible user: every metric averages over nothing
        (_ineligible_corpus, "52ab71914869df11f12a9c84e4df02863e2ee84068b2f1238a062fe41c73643e"),
    ],
    ids=["uncategorized_withheld", "no_eligible_user"],
)
def test_degenerate_inputs_keep_their_report_bytes_without_warnings(make, digest):
    corpus = make()
    split = make_split(corpus, seed=0)
    # the derived weights of "h" are all 0, so it serves only empty lists
    recommenders = ["most_popular", "mp.purchases.jaccard", HybridDef("h", ("mp.purchases.jaccard",))]
    reports = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for task in TASKS:
            for averaging in AVERAGING_MODES:
                report = run_experiment(corpus, split, recommenders, task, averaging=averaging)
                assert report.metadata["weight.h.mp.purchases.jaccard"] == "0.000000"
                for table in (format_report_table, format_curves_table, format_metadata_table):
                    reports.update(table(report).encode())
    assert reports.hexdigest() == digest


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
    lengths = set()
    for rec_id in recommenders:
        recall_sums, precision_sums = [0.0] * 10, [0.0] * 10
        for user, task_list in zip(sorted(split.eligible), _column(engine, rec_id, TASK_LISTS[task]), strict=True):
            ids = [item for item, _ in task_list]
            lengths.add(len(ids))
            relevant = _oracle_relevant(corpus, task, split.test[user])
            if user == "bare" and task != "products":
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
            expected = _evaluate(inner, component, task, "harsh")[0].ndcg
            assert _harsh_ndcg(inner, component, task) == expected


def test_weighting_engine_shares_split_independent_slices(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    outer = _Engine(medium_corpus, split, DEFAULT_K, 10)
    inner_split = make_weighting_split(split, split.seed + 1)
    inner = _Engine(medium_corpus, inner_split, DEFAULT_K, 10, outer=outer)
    fresh = SimilarityContext(with_purchases(medium_corpus, inner_split.training))
    users = sorted(medium_corpus.users)
    for feature in ALL_FEATURE_IDS:
        for user in users:
            outer.slice_for(feature, user)  # the outer engine holds its slices first
    differs = 0
    for feature in ALL_FEATURE_IDS:
        split_dependent = parse_feature_id(feature).entity_kind in PURCHASE_KINDS
        assert split_dependent == feature.startswith("mp.")
        for user in users:
            inner_slice = inner.slice_for(feature, user)
            assert inner_slice == fresh.k_nearest(feature, user, DEFAULT_K)
            if split_dependent:
                differs += inner_slice != outer.slice_for(feature, user)
            else:
                assert inner_slice is outer.slice_for(feature, user)
    assert differs > 0  # the inner hold-out changes purchase neighbourhoods


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
    weights = {"mp.purchases.jaccard": 0.5, "sn.graph.cn": 0.5}
    hybrid = HybridDef("mix", ("mp.purchases.jaccard", "sn.graph.cn"), weights=weights)
    for rec in ("most_popular", "mp.purchases.jaccard", "sn.graph.cn", hybrid):
        for user, product_list in zip(sorted(split.eligible), _column(engine, rec, "product"), strict=True):
            owned = engine.purchase_sets.get(user, frozenset())
            assert owned.isdisjoint(item for item, _ in product_list)


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


@pytest.mark.parametrize("weights", [None, {"sn.graph.no": 0.8, "most_popular": 0.5}])
def test_hybrid_listing_a_component_twice_rejected(medium_corpus, weights):
    split = make_split(medium_corpus, seed=4)
    hybrid = HybridDef("twice", ("sn.graph.no", "sn.graph.no", "most_popular"), weights=weights)
    with pytest.raises(ValueError, match="'twice' lists components twice: sn.graph.no"):
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
    report = run_experiment(medium_corpus, split, [hybrid], "products")
    assert report.metadata["weighting_seed"] == "5"  # the split seed + 1
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


def test_all_zero_derived_weights_serve_empty_lists(planted_corpus):
    # the inner weighting split leaves purchase neighbourhoods nothing to recommend
    split = make_split(planted_corpus, PLANTED_SPLIT_SEED)
    hybrid = HybridDef("h", ("mp.purchases.jaccard",))
    for task in TASKS:
        report = run_experiment(planted_corpus, split, [hybrid], task)
        meta = report.metadata
        assert meta["weight.h.mp.purchases.jaccard"] == "0.000000"
        assert meta["served.h"] == "0"
        assert meta["short_product_lists.h"] == str(len(split.eligible))
        assert report.rows == [ReportRow("h", 0.0, 0.0, 0.0, 0.0, 0.0)]
        assert {(p.recall, p.precision) for p in report.curves} == {(0.0, 0.0)}


@pytest.mark.parametrize("weights", [None, {"sn.graph.no": 0.4, "mp.purchases.jaccard": 0.6}])
def test_hybrid_named_like_its_component_reports_as_any_name(medium_corpus, weights):
    split = make_split(medium_corpus, seed=4)
    components = ("sn.graph.no", "mp.purchases.jaccard")
    # a second hybrid reads the component's own lists after the first one ran
    pair = HybridDef("pair", ("sn.graph.no", "loc.monitored.jaccard"))
    for task in TASKS:
        rows = {}
        for name in ("sn.graph.no", "mix"):
            recs = [HybridDef(name, components, weights), pair]
            report = run_experiment(medium_corpus, split, recs, task)
            row, pair_row = report.rows
            rows[name] = (replace(row, recommender="mix"), pair_row)
            assert [p.recommender for p in report.curves[: len(CURVE_KS)]] == [name] * len(CURVE_KS)
        assert rows["sn.graph.no"] == rows["mix"]
        if weights is not None:
            (alone,) = run_experiment(medium_corpus, split, ["sn.graph.no"], task).rows
            assert replace(alone, recommender="mix") != rows["mix"][0]


def test_run_experiment_leaves_no_reference_cycles(medium_corpus):
    split = make_split(medium_corpus, seed=4)
    hybrid = HybridDef("auto", ("mp.purchases.jaccard", "sn.graph.no"))
    gc.collect()
    gc.disable()
    try:
        for task in ("products", "top_categories"):
            run_experiment(medium_corpus, split, ["sn.graph.cn", hybrid], task)
        # everything the runs built was freed by reference counting alone
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- report serialization -----------------------------------------------------


def test_report_tables_and_files(tmp_path):
    from marketrec.evalharness import CurvePoint

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
