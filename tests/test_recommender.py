import random

import pytest
from hypothesis import given, strategies as st

from marketrec.recommender import (
    HybridWeights,
    RecommendationList,
    cf_categories,
    cf_products,
    most_popular,
    normalize_scores,
    popularity_counts,
    weighted_sum_hybrid,
)
from marketrec.simfeatures import SimilarityContext, SimilarityMatrixSlice

from helpers import make_corpus
import oracles


def rec(items, target="t", kind="product"):
    return RecommendationList(target=target, kind=kind, items=tuple(items))


# --- most popular ---------------------------------------------------------


def test_most_popular_ranks_by_purchase_frequency():
    corpus = make_corpus(
        products=[("p1", "s", ()), ("p2", "s", ())],
        purchases=[("a", "p1"), ("b", "p1"), ("c", "p1"), ("a", "p2")],
    )
    top = most_popular(corpus, "product", 2)
    assert top.items == (("p1", 3.0), ("p2", 1.0))


def test_most_popular_excludes_owned_products():
    corpus = make_corpus(
        products=[("p1", "s", ()), ("p2", "s", ())],
        purchases=[("a", "p1"), ("b", "p1"), ("c", "p1"), ("a", "p2")],
    )
    top = most_popular(corpus, "product", 2, owned=frozenset({"p1"}), target="a")
    assert top.items == (("p2", 1.0),)
    assert top.target == "a"


def test_most_popular_category_counts_match_recount(small_corpus):
    for kind, extract in (("top_category", 0), ("low_category", -1)):
        counts = {}
        for purchase in small_corpus.purchases:
            path = small_corpus.products[purchase.product].category_path
            if not path:
                continue
            counts[path[extract]] = counts.get(path[extract], 0) + 1
        assert popularity_counts(small_corpus, kind) == counts
        top = most_popular(small_corpus, kind, 5)
        assert list(top.items) == oracles.ranked({c: float(n) for c, n in counts.items()}, 5)


def test_most_popular_tie_break():
    corpus = make_corpus(
        products=[("pb", "s", ()), ("pa", "s", ())],
        purchases=[("a", "pb"), ("b", "pa")],
    )
    assert most_popular(corpus, "product", 2).item_ids() == ("pa", "pb")


# Few products, buyers and categories, so purchase counts tie often.
POPULAR_PATHS = {
    "p0": ("A", "A1"), "p1": ("A", "A2"), "p2": ("A", "A1"), "p3": ("B", "B1"),
    "p4": ("B",), "p5": (), "p6": ("C", "C1"), "p7": (),
}
POPULAR_KINDS = {"product": None, "top_category": 0, "low_category": -1}


@given(
    purchases=st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from(sorted(POPULAR_PATHS))), max_size=24
    ),
    owned=st.frozensets(st.sampled_from(sorted(POPULAR_PATHS))),
    kind=st.sampled_from(sorted(POPULAR_KINDS)),
    length=st.sampled_from(["one", "pool", "past", "all"]),
)
def test_most_popular_precomputed_ranking_matches_ranking_per_call(purchases, owned, kind, length):
    corpus = make_corpus(
        products=[(pid, "s", path) for pid, path in POPULAR_PATHS.items()], purchases=purchases
    )
    level = POPULAR_KINDS[kind]
    counts = {}
    for _, pid in purchases:
        path = POPULAR_PATHS[pid]
        key = pid if level is None else (path[level] if path else None)
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    excluded = owned if kind == "product" else frozenset()
    pool = {item: float(c) for item, c in counts.items() if item not in excluded}
    n = {"one": 1, "pool": len(pool), "past": len(pool) + 3, "all": None}[length]

    ranking = most_popular(corpus, kind, None).items
    assert list(ranking) == oracles.ranked({item: float(c) for item, c in counts.items()}, None)
    precomputed = most_popular(corpus, kind, n, owned=owned, target="t", ranking=ranking)
    per_call = most_popular(corpus, kind, n, owned=owned, target="t")
    assert precomputed == per_call
    assert list(per_call.items) == oracles.ranked(pool, n)


# --- user-based CF --------------------------------------------------------


def test_cf_products_sums_neighbour_similarities():
    slice_ = SimilarityMatrixSlice("t", (("v1", 0.5), ("v2", 0.3)))
    owned = {"v1": frozenset({"p1", "p2"}), "v2": frozenset({"p2"}), "t": frozenset()}
    result = cf_products(slice_, owned, 10)
    assert result.item_ids() == ("p2", "p1")
    assert dict(result.items) == pytest.approx({"p2": 0.8, "p1": 0.5})


def test_cf_products_excludes_already_owned():
    slice_ = SimilarityMatrixSlice("t", (("v1", 0.5), ("v2", 0.3)))
    owned = {"v1": frozenset({"p1", "p2"}), "v2": frozenset({"p2"}), "t": frozenset({"p2"})}
    result = cf_products(slice_, owned, 10)
    assert result.items == (("p1", 0.5),)


def test_cf_products_empty_slice_gives_empty_list():
    result = cf_products(SimilarityMatrixSlice("t", ()), {}, 10)
    assert result.items == ()
    assert result.target == "t"


def test_cf_products_matches_exhaustive_oracle(small_corpus):
    context = SimilarityContext(small_corpus)
    purchase_sets = context.entity_sets("purchases")
    owned_oracle = oracles.purchase_sets(small_corpus.purchases)
    for target in sorted(small_corpus.users)[::3]:
        slice_ = context.k_nearest("mp.purchases.jaccard", target, 8)
        expected = oracles.cf_product_scores(
            slice_.scored, owned_oracle, owned_oracle.get(target, set())
        )
        result = cf_products(slice_, purchase_sets, 10)
        assert list(result.items) == [
            (item, pytest.approx(score, abs=1e-9))
            for item, score in oracles.ranked(expected, 10)
        ]


def test_cf_categories_frequency_shares():
    corpus = make_corpus(
        products=[("p1", "s", ("A",)), ("p2", "s", ("A",)), ("p3", "s", ("B",))],
        purchases=[("v", "p1"), ("v", "p2"), ("v", "p3")],
    )
    slice_ = SimilarityMatrixSlice("t", (("v", 1.0),))
    owned = {"v": frozenset({"p1", "p2", "p3"}), "t": frozenset()}
    result = cf_categories(slice_, corpus, owned, "top", 10)
    assert result.items == (("A", pytest.approx(2 / 3)), ("B", pytest.approx(1 / 3)))
    assert result.kind == "top_category"


def test_cf_categories_all_uncategorized_gives_empty():
    corpus = make_corpus(
        products=[("p1", "s", ()), ("p2", "s", ())],
        purchases=[("v", "p1"), ("v", "p2")],
    )
    slice_ = SimilarityMatrixSlice("t", (("v", 1.0),))
    owned = {"v": frozenset({"p1", "p2"}), "t": frozenset()}
    assert cf_categories(slice_, corpus, owned, "low", 10).items == ()


def test_cf_categories_uses_untruncated_candidates_and_levels():
    # 4 candidate products but n=1: category shares still counted over all 4
    corpus = make_corpus(
        products=[
            ("p1", "s", ("A", "x1")),
            ("p2", "s", ("A", "x2")),
            ("p3", "s", ("A", "x2")),
            ("p4", "s", ("B", "x3")),
        ],
        purchases=[("v", "p1"), ("v", "p2"), ("w", "p3"), ("w", "p4")],
    )
    slice_ = SimilarityMatrixSlice("t", (("v", 0.9), ("w", 0.1)))
    owned = {"v": frozenset({"p1", "p2"}), "w": frozenset({"p3", "p4"}), "t": frozenset()}
    top = cf_categories(slice_, corpus, owned, "top", 1)
    assert top.items == (("A", pytest.approx(3 / 4)),)
    low = cf_categories(slice_, corpus, owned, "low", 10)
    assert dict(low.items) == pytest.approx({"x1": 1 / 4, "x2": 2 / 4, "x3": 1 / 4})


def test_cf_category_scores_sum_to_one(small_corpus):
    context = SimilarityContext(small_corpus)
    purchase_sets = context.entity_sets("purchases")
    for target in sorted(small_corpus.users)[::7]:
        slice_ = context.k_nearest("mp.purchases.jaccard", target, 8)
        full = cf_categories(slice_, small_corpus, purchase_sets, "low", 10**9)
        if full.items:
            assert sum(score for _, score in full.items) == pytest.approx(1.0, abs=1e-9)


# --- normalization --------------------------------------------------------


def test_normalize_min_max():
    result = normalize_scores(rec([("a", 4.0), ("b", 2.0), ("c", 0.0)]))
    assert result.items == (("a", 1.0), ("b", 0.5), ("c", 0.0))


def test_normalize_constant_and_empty():
    assert normalize_scores(rec([("a", 3.0), ("b", 3.0)])).items == (("a", 1.0), ("b", 1.0))
    empty = rec([])
    assert normalize_scores(empty).items == ()


@given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=3), st.floats(0, 100)), max_size=8))
def test_normalize_bounds_and_order(items):
    seen = set()
    unique = [(f"{i}-{item}", score) for i, (item, score) in enumerate(items)]
    result = normalize_scores(rec(unique))
    assert [item for item, _ in result.items] == [item for item, _ in unique]
    assert all(0.0 <= score <= 1.0 for _, score in result.items)


# --- weighted-sum hybrid ----------------------------------------------------


def test_hybrid_disjoint_lists():
    lists = {"A": rec([("x", 1.0)]), "B": rec([("y", 1.0)])}
    result = weighted_sum_hybrid(lists, {"A": 0.2, "B": 0.1}, 10)
    assert result.items == (("x", pytest.approx(0.2)), ("y", pytest.approx(0.1)))


def test_hybrid_shared_item_accumulates():
    lists = {"A": rec([("x", 1.0)]), "B": rec([("x", 0.5)])}
    result = weighted_sum_hybrid(lists, {"A": 0.2, "B": 0.1}, 10)
    assert result.items == (("x", pytest.approx(0.25)),)


def test_hybrid_single_component_reproduces_ranking():
    component = rec([("a", 1.0), ("b", 0.7), ("c", 0.1)])
    result = weighted_sum_hybrid({"A": component}, {"A": 0.37}, 10)
    assert result.item_ids() == component.item_ids()


def test_hybrid_all_empty():
    result = weighted_sum_hybrid({"A": rec([]), "B": rec([])}, {"A": 1.0, "B": 1.0}, 10)
    assert result.items == ()


def test_hybrid_missing_component_weight_means_zero():
    lists = {"A": rec([("x", 1.0)]), "B": rec([("y", 1.0)])}
    result = weighted_sum_hybrid(lists, {"A": 1.0}, 10)
    assert result.items == (("x", 1.0),)


def test_derive_hybrid_weights_passthrough():
    weights = HybridWeights({"sn.graph.no": 0.1434, "mp.sellers.jaccard": 0.0158})
    assert weights.weights == {"sn.graph.no": 0.1434, "mp.sellers.jaccard": 0.0158}
    single = HybridWeights({"only": 0.5})
    assert single.weights["only"] == 0.5


def test_derive_hybrid_weights_zero_component_excluded():
    weights = HybridWeights({"good": 0.2, "useless": 0.0})
    combined = weighted_sum_hybrid(
        {"good": rec([("x", 1.0)]), "useless": rec([("y", 1.0)])}, weights, 10
    )
    assert combined.item_ids() == ("x",)


def test_derive_hybrid_weights_all_zero_is_an_error():
    with pytest.raises(ValueError, match="no informative component"):
        HybridWeights({"a": 0.0, "b": 0.0})
    with pytest.raises(ValueError):
        HybridWeights({"a": -0.1, "b": 1.0})


# --- ranking laws -----------------------------------------------------------


def _random_lists(rng, n_components=3, n_items=6):
    lists = {}
    for c in range(n_components):
        items = {}
        for i in rng.sample(range(n_items), rng.randint(0, n_items)):
            items[f"p{i}"] = round(rng.random(), 3)
        lists[f"c{c}"] = rec(oracles.ranked(items, None if not items else len(items)))
    return lists


def test_hybrid_scaling_invariance_random_cases():
    rng = random.Random(1234)
    for _ in range(300):
        lists = _random_lists(rng)
        weights = {c: rng.random() for c in lists}
        if not any(weights.values()):
            continue
        scale = rng.uniform(0.01, 50)
        base = weighted_sum_hybrid(lists, weights, 5)
        scaled = weighted_sum_hybrid(lists, {c: w * scale for c, w in weights.items()}, 5)
        assert base.item_ids() == scaled.item_ids()


def test_eq10_monotonicity_adding_owner_never_decreases_score():
    owned = {"v1": frozenset({"p1"}), "v2": frozenset({"p1", "p2"}), "t": frozenset()}
    small = cf_products(SimilarityMatrixSlice("t", (("v1", 0.5),)), owned, 10)
    grown = cf_products(SimilarityMatrixSlice("t", (("v1", 0.5), ("v2", 0.2))), owned, 10)
    assert dict(grown.items)["p1"] >= dict(small.items)["p1"]


def test_lists_obey_length_and_tie_break():
    corpus = make_corpus(
        products=[(f"p{i}", "s", ()) for i in range(5)],
        purchases=[("a", f"p{i}") for i in range(5)] + [("b", f"p{i}") for i in range(5)],
    )
    top = most_popular(corpus, "product", 3)
    assert len(top) == 3
    assert top.item_ids() == ("p0", "p1", "p2")  # all tied at 2, id order
