import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from marketrec import simfeatures
from marketrec.corpus import low_level_category, top_level_category
from marketrec.evalharness import HybridDef, check_experiment
from marketrec.recommender import (
    RecommendationList,
    cf_candidate_scores,
    cf_categories,
    cf_products,
    list_items,
    most_popular,
    normalize_scores,
    normalized_rows,
    popularity_counts,
    weighted_rows,
    weighted_sum_hybrid,
)
from marketrec.simfeatures import EntitySets, SimilarityContext, SimilarityMatrixSlice, top_n

from helpers import make_corpus
import oracles


# Every user the CF tests name, sorted: slices index it, and so do the purchase sets built over it.
USERS = ("a", "b", "c", "d", "e", "t", "v", "v1", "v2", "v3", "v4", "w")


def rec(items, target="t", kind="product"):
    return RecommendationList(target=target, kind=kind, items=tuple(items))


def test_recommendation_lists_are_slotted_and_compare_by_their_fields():
    made, same = rec([("a", 2.0), ("b", 1.0)]), rec([("a", 2.0), ("b", 1.0)])
    assert not hasattr(made, "__dict__")  # like the corpus records: no per-list dict
    assert made.item_ids() == ("a", "b") and made == same and hash(made) == hash(same)
    assert repr(made) == "RecommendationList(target='t', kind='product', items=(('a', 2.0), ('b', 1.0)))"


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


def test_most_popular_rejects_unknown_kind_with_or_without_ranking():
    corpus = make_corpus(products=[("p1", "s", ())], purchases=[("a", "p1")])
    with pytest.raises(ValueError, match="unknown list kind: 'bogus'"):
        most_popular(corpus, "bogus", 3)
    with pytest.raises(ValueError, match="unknown list kind: 'bogus'"):
        most_popular(corpus, "bogus", 3, ranking=[("p1", 2.0)])


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


def test_list_items_maps_products_to_the_items_of_each_kind():
    paths = {**POPULAR_PATHS, "p8": ("",)}  # an empty category id is still a category
    corpus = make_corpus(products=[(pid, "s", path) for pid, path in paths.items()])
    products = ["p5", "p1", "p3", "p1", "p7", "p8", "p4", "p0"]  # p5 and p7 are uncategorized
    assert list(list_items(corpus, "product", products)) == products
    for kind, extract in (("top_category", top_level_category), ("low_category", low_level_category)):
        by_hand = [extract(corpus.products[pid]) for pid in products]
        assert list(list_items(corpus, kind, products)) == [c for c in by_hand if c is not None]
    assert list(list_items(corpus, "top_category", products)) == ["A", "B", "A", "", "B", "A"]
    assert list(list_items(corpus, "low_category", products)) == ["A2", "B1", "A2", "", "B", "A1"]
    with pytest.raises(ValueError, match="unknown list kind: 'products'"):
        list_items(corpus, "products", products)


# --- user-based CF --------------------------------------------------------


def test_cf_products_sums_neighbour_similarities():
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v1", 0.5), ("v2", 0.3)), USERS)
    owned = EntitySets({"v1": frozenset({"p1", "p2"}), "v2": frozenset({"p2"}), "t": frozenset()}, USERS)
    result = cf_products(slice_, owned, 10)
    assert result.item_ids() == ("p2", "p1")
    assert dict(result.items) == pytest.approx({"p2": 0.8, "p1": 0.5})


def test_cf_products_excludes_already_owned():
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v1", 0.5), ("v2", 0.3)), USERS)
    owned = EntitySets({"v1": frozenset({"p1", "p2"}), "v2": frozenset({"p2"}), "t": frozenset({"p2"})}, USERS)
    result = cf_products(slice_, owned, 10)
    assert result.items == (("p1", 0.5),)


def test_cf_products_empty_slice_gives_empty_list():
    result = cf_products(SimilarityMatrixSlice.from_pairs("t", (), USERS), EntitySets({}, USERS), 10)
    assert result.items == ()
    assert result.target == "t"


def test_cf_rejects_purchase_sets_not_from_a_context():
    # a plain mapping would need its product index rebuilt on every call
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v1", 0.5),), USERS)
    owned = {"v1": frozenset({"p1"}), "t": frozenset()}
    corpus = make_corpus(products=[("p1", "s", ("A",))], purchases=[("v1", "p1")])
    for call in (cf_products, cf_candidate_scores, lambda s, o: cf_categories(s, corpus, o, "top_category")):
        with pytest.raises(TypeError, match=r"SimilarityContext\.entity_sets, got dict"):
            call(slice_, owned)


def test_negative_list_length_is_rejected():
    # a negative n would slice from the end: -1 kept one entry of three
    with pytest.raises(ValueError, match="n must be >= 0"):
        top_n({"a": 3.0, "b": 2.0, "c": 1.0}, -1)
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v1", 0.5), ("v2", 0.3)), USERS)
    owned = EntitySets({"v1": frozenset({"p1", "p2"}), "v2": frozenset({"p3"}), "t": frozenset()}, USERS)
    with pytest.raises(ValueError, match="n must be >= 0"):
        cf_products(slice_, owned, -1)
    corpus = make_corpus(
        products=[("p1", "s", ("A",)), ("p2", "s", ("B",)), ("p3", "s", ("C",))],
        purchases=[("v1", "p1"), ("v1", "p2"), ("v2", "p3")],
    )
    with pytest.raises(ValueError, match="n must be >= 0"):
        most_popular(corpus, "product", -1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        most_popular(corpus, "top_category", -1, ranking=most_popular(corpus, "top_category", None).items)
    with pytest.raises(ValueError, match="n must be >= 0"):
        cf_categories(slice_, corpus, owned, "top_category", -1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        weighted_sum_hybrid({"a": rec([("p1", 1.0), ("p2", 0.5)])}, {"a": 1.0}, -1)
    assert top_n({"a": 3.0}, 0) == [] and cf_products(slice_, owned, 0).items == ()
    assert most_popular(corpus, "product", 0).items == ()
    assert len(top_n({"a": 3.0, "b": 2.0, "c": 1.0}, None)) == 3


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
        assert list(result.items) == oracles.ranked(expected, 10)
    # Near tie: in slice order 0.3 + 0.2 + 0.1 is exactly 0.6, so "pb" ties "pa" and
    # follows it by id; any other addition order gives 0.6000000000000001 and flips them.
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v1", 0.6), ("v2", 0.3), ("v3", 0.2), ("v4", 0.1)), USERS)
    owned = {"v1": {"pa"}, "v2": {"pb"}, "v3": {"pb"}, "v4": {"pb"}, "t": set()}
    expected = oracles.ranked(oracles.cf_product_scores(slice_.scored, owned, set()), 10)
    assert expected == [("pa", 0.6), ("pb", 0.6)]
    frozen = {user: frozenset(items) for user, items in owned.items()}
    assert list(cf_products(slice_, EntitySets(frozen, USERS), 10).items) == expected


def test_cf_categories_frequency_shares():
    corpus = make_corpus(
        products=[("p1", "s", ("A",)), ("p2", "s", ("A",)), ("p3", "s", ("B",))],
        purchases=[("v", "p1"), ("v", "p2"), ("v", "p3")],
    )
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v", 1.0),), USERS)
    owned = EntitySets({"v": frozenset({"p1", "p2", "p3"}), "t": frozenset()}, USERS)
    result = cf_categories(slice_, corpus, owned, "top_category", 10)
    assert result.items == (("A", pytest.approx(2 / 3)), ("B", pytest.approx(1 / 3)))
    assert result.kind == "top_category"
    with pytest.raises(ValueError, match="kind must be 'top_category' or 'low_category'"):
        cf_categories(slice_, corpus, owned, "product", 10)


def test_cf_categories_all_uncategorized_gives_empty():
    corpus = make_corpus(
        products=[("p1", "s", ()), ("p2", "s", ())],
        purchases=[("v", "p1"), ("v", "p2")],
    )
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v", 1.0),), USERS)
    owned = EntitySets({"v": frozenset({"p1", "p2"}), "t": frozenset()}, USERS)
    assert cf_categories(slice_, corpus, owned, "low_category", 10).items == ()


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
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v", 0.9), ("w", 0.1)), USERS)
    owned = EntitySets({"v": frozenset({"p1", "p2"}), "w": frozenset({"p3", "p4"}), "t": frozenset()}, USERS)
    top = cf_categories(slice_, corpus, owned, "top_category", 1)
    assert top.items == (("A", pytest.approx(3 / 4)),)
    low = cf_categories(slice_, corpus, owned, "low_category", 10)
    assert dict(low.items) == pytest.approx({"x1": 1 / 4, "x2": 2 / 4, "x3": 1 / 4})


CF_PRODUCTS = sorted(POPULAR_PATHS)


@given(
    owned=st.fixed_dictionaries(
        {user: st.frozensets(st.sampled_from(CF_PRODUCTS)) for user in "tabcd"}
    ),
    neighbours=st.lists(
        st.tuples(st.sampled_from("abcde"), st.floats(0.01, 1.0)), unique_by=lambda e: e[0]
    ),
    kind=st.sampled_from(["top_category", "low_category"]),
    n=st.integers(1, 9),
)
@example(  # a target that owns every candidate
    owned={"t": frozenset(CF_PRODUCTS), "a": frozenset({"p0", "p5"}), "b": frozenset(),
           "c": frozenset(), "d": frozenset()},
    neighbours=[("a", 0.5)], kind="top_category", n=3,
)
@example(  # neighbours without purchases ("e" has no purchase set at all), n below the pool
    owned={"t": frozenset(), "a": frozenset(), "b": frozenset(CF_PRODUCTS),
           "c": frozenset(), "d": frozenset()},
    neighbours=[("a", 0.9), ("e", 0.4), ("b", 0.2)], kind="low_category", n=1,
)
def test_cf_categories_shares_over_oracle_candidate_pool(owned, neighbours, kind, n):
    corpus = make_corpus(products=[(pid, "s", path) for pid, path in POPULAR_PATHS.items()])
    slice_ = SimilarityMatrixSlice.from_pairs("t", tuple(sorted(neighbours, key=lambda e: (-e[1], e[0]))), USERS)
    pool = oracles.cf_product_scores(slice_.scored, owned, owned["t"])
    position = 0 if kind == "top_category" else -1
    counts = {}
    for item in pool:
        path = POPULAR_PATHS[item]
        if path:
            counts[path[position]] = counts.get(path[position], 0) + 1
    total = sum(counts.values())
    shares = {category: count / total for category, count in counts.items()}
    result = cf_categories(slice_, corpus, EntitySets(owned, USERS), kind, n)
    assert list(result.items) == oracles.ranked(shares, n)


@given(
    # the target ("t") or a neighbour may have no purchase set at all
    owned=st.dictionaries(st.sampled_from("tabcde"), st.frozensets(st.sampled_from(CF_PRODUCTS))),
    neighbours=st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from([0.1, 0.2, 0.3, 0.6])),
        unique_by=lambda e: e[0],
    ),
)
@example(  # the target owns some of every neighbour's products; neighbours share a similarity
    owned={"t": frozenset({"p0", "p3"}), "a": frozenset({"p0", "p1"}), "b": frozenset({"p1", "p3"})},
    neighbours=[("a", 0.3), ("b", 0.3), ("c", 0.1)],
)
def test_cf_candidate_scores_matches_oracle(owned, neighbours):
    slice_ = SimilarityMatrixSlice.from_pairs("t", tuple(sorted(neighbours, key=lambda e: (-e[1], e[0]))), USERS)
    target_owned = owned.get("t", frozenset())
    scores = cf_candidate_scores(slice_, EntitySets(owned, USERS))
    expected = oracles.cf_product_scores(slice_.scored, owned, target_owned)
    assert scores == expected
    assert list(scores) == list(expected)  # the same insertion order too
    assert scores.keys().isdisjoint(target_owned)


@given(
    # the target ("t") or a neighbour may have no purchase set at all, or an empty one
    owned=st.dictionaries(st.sampled_from("tabcde"), st.frozensets(st.sampled_from(CF_PRODUCTS))),
    neighbours=st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from([0.1, 0.2, 0.3, 0.6])),
        unique_by=lambda e: e[0],
    ),
    length=st.sampled_from(["zero", "one", "pool", "past", "all"]),
    from_context=st.booleans(),
)
@example(  # "e" and the target are absent, "c" owns nothing; 0.3 + 0.2 + 0.1 ties 0.6 exactly
    owned={"a": frozenset({"p0"}), "b": frozenset({"p1"}), "c": frozenset(), "d": frozenset({"p1"})},
    neighbours=[("a", 0.6), ("e", 0.6), ("b", 0.3), ("c", 0.2), ("d", 0.2)],
    length="pool", from_context=True,
)
def test_cf_products_matches_oracle_ranking(owned, neighbours, length, from_context):
    scored = tuple(sorted(neighbours, key=lambda e: (-e[1], e[0])))
    slice_ = SimilarityMatrixSlice.from_pairs("t", scored, USERS)
    pool = oracles.cf_product_scores(slice_.scored, owned, owned.get("t", frozenset()))
    n = {"zero": 0, "one": 1, "pool": len(pool), "past": len(pool) + 3, "all": None}[length]
    purchase_sets = EntitySets(owned, USERS)
    if from_context:
        corpus = make_corpus(
            products=[(pid, "s", ()) for pid in CF_PRODUCTS],
            purchases=[(user, item) for user, items in owned.items() for item in items],
            extra_users=tuple("tabcde"),
        )
        context = SimilarityContext(corpus)
        purchase_sets = context.entity_sets("purchases")
        assert {user: purchase_sets[user] for user in owned} == owned
        assert not any(purchase_sets[user] for user in set("tabcde") - set(owned))
        slice_ = SimilarityMatrixSlice.from_pairs("t", scored, context.users)
    assert list(cf_products(slice_, purchase_sets, n).items) == oracles.ranked(pool, n)


# Product id order is not category id order at either level, so codes given in
# product order would break share ties differently from category ids.
CATEGORY_PATHS = {
    "p0": ("C", "C1"), "p1": ("A", "B1"), "p2": ("B", "A1"), "p3": (),
    "p4": ("A", "A2"), "p5": ("C",), "p6": (), "p7": ("B", "B1"),
}


@given(
    owned=st.fixed_dictionaries(
        {user: st.frozensets(st.sampled_from(sorted(CATEGORY_PATHS))) for user in "tabcd"}
    ),
    neighbours=st.lists(
        st.tuples(st.sampled_from("abcd"), st.floats(0.01, 1.0)), unique_by=lambda e: e[0]
    ),
    kind=st.sampled_from(["top_category", "low_category"]),
    n=st.integers(0, 6),
)
@example(  # tied counts: "C" and "C1" come from the first product, "A" and "A1" sort first
    owned={"t": frozenset(), "a": frozenset({"p0", "p1"}), "b": frozenset({"p2"}), "c": frozenset(),
           "d": frozenset()},
    neighbours=[("a", 0.5), ("b", 0.4)], kind="top_category", n=6,
)
@example(  # uncategorized products in the pool, and n below the number of categories
    owned={"t": frozenset(), "a": frozenset({"p3", "p6", "p0"}), "b": frozenset({"p1", "p2", "p7"}),
           "c": frozenset(), "d": frozenset()},
    neighbours=[("b", 0.9), ("a", 0.2)], kind="low_category", n=2,
)
@example(  # an empty slice
    owned={"t": frozenset(), "a": frozenset({"p0"}), "b": frozenset(), "c": frozenset(), "d": frozenset()},
    neighbours=[], kind="low_category", n=3,
)
@example(  # the target owns the whole pool
    owned={"t": frozenset(CATEGORY_PATHS), "a": frozenset({"p0", "p4"}), "b": frozenset({"p2"}),
           "c": frozenset(), "d": frozenset()},
    neighbours=[("a", 0.7), ("b", 0.1)], kind="top_category", n=3,
)
def test_cf_categories_matches_shares_counted_here(owned, neighbours, kind, n):
    corpus = make_corpus(products=[(pid, "s", path) for pid, path in CATEGORY_PATHS.items()])
    slice_ = SimilarityMatrixSlice.from_pairs("t", tuple(sorted(neighbours, key=lambda e: (-e[1], e[0]))), USERS)
    level = 0 if kind == "top_category" else -1
    counts = {}
    for product in oracles.cf_product_scores(slice_.scored, owned, owned["t"]):
        path = CATEGORY_PATHS[product]
        if path:
            counts[path[level]] = counts.get(path[level], 0) + 1
    total = sum(counts.values())
    expected = oracles.ranked({category: count / total for category, count in counts.items()}, n)
    assert list(cf_categories(slice_, corpus, EntitySets(owned, USERS), kind, n).items) == expected


def test_cf_categories_reads_the_product_table_it_is_given():
    rows = {"purchases": [("v", "p1"), ("v", "p2")], "extra_users": ("t",)}
    first = make_corpus(products=[("p1", "s", ("A",)), ("p2", "s", ("A",))], **rows)
    second = make_corpus(products=[("p1", "s", ("B",)), ("p2", "s", ())], **rows)
    context = SimilarityContext(first)
    purchase_sets = context.entity_sets("purchases")
    slice_ = SimilarityMatrixSlice.from_pairs("t", (("v", 1.0),), context.users)
    for corpus, items in ((first, (("A", 1.0),)), (second, (("B", 1.0),)), (first, (("A", 1.0),))):
        assert cf_categories(slice_, corpus, purchase_sets, "top_category").items == items


def test_cf_lists_of_one_slice_in_turn_match_lists_made_alone(small_corpus):
    context = SimilarityContext(small_corpus)
    purchase_sets = context.entity_sets("purchases")
    owned = oracles.purchase_sets(small_corpus.purchases)
    for target in context.users[::5]:
        for feature_id in ("mp.purchases.jaccard", "sn.graph.aa"):
            slice_ = context.k_nearest(feature_id, target, 8)
            alone = cf_categories(slice_, small_corpus, EntitySets(purchase_sets, context.users), "low_category", 10)
            assert cf_categories(slice_, small_corpus, purchase_sets, "low_category", 10) == alone
            expected = oracles.cf_product_scores(slice_.scored, owned, owned.get(target, set()))
            assert list(cf_products(slice_, purchase_sets, 10).items) == oracles.ranked(expected, 10)
            assert cf_candidate_scores(slice_, purchase_sets) == expected


def test_cf_lists_read_from_a_kept_block_match_lists_made_alone(monkeypatch, small_corpus):
    monkeypatch.setattr(simfeatures, "CF_BLOCK_CELLS", 400)  # several blocks of several rows
    context = SimilarityContext(small_corpus)
    purchase_sets = context.entity_sets("purchases")
    blocks = []
    for feature_id in ("mp.purchases.jaccard", "sn.graph.aa"):
        slices = [context.k_nearest(feature_id, target, 8) for target in context.users]
        while slices:
            blocks.append(purchase_sets.keep_cf_sums(slices))
            for slice_ in slices[: blocks[-1]]:
                alone = EntitySets(purchase_sets, context.users)  # no block kept: each call gathers its own
                assert cf_products(slice_, purchase_sets, 10) == cf_products(slice_, alone, 10)
                for kind in ("top_category", "low_category"):
                    kept = cf_categories(slice_, small_corpus, purchase_sets, kind, 10)
                    assert kept == cf_categories(slice_, small_corpus, alone, kind, 10)
                assert cf_candidate_scores(slice_, purchase_sets) == cf_candidate_scores(slice_, alone)
            slices = slices[blocks[-1] :]
    assert max(blocks) > 1 and len(blocks) > 2


def test_cf_category_scores_sum_to_one(small_corpus):
    context = SimilarityContext(small_corpus)
    purchase_sets = context.entity_sets("purchases")
    for target in sorted(small_corpus.users)[::7]:
        slice_ = context.k_nearest("mp.purchases.jaccard", target, 8)
        full = cf_categories(slice_, small_corpus, purchase_sets, "low_category", 10**9)
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


def _check_weights(weights):
    hybrid = HybridDef("h", tuple(weights), weights=weights)
    check_experiment([hybrid], "products", knn_k=40, list_length=10, averaging="harsh")


def test_derive_hybrid_weights_passthrough():
    _check_weights({"sn.graph.no": 0.1434, "mp.sellers.jaccard": 0.0158})
    _check_weights({"most_popular": 0.5})


def test_derive_hybrid_weights_zero_component_excluded():
    weights = {"sn.graph.no": 0.2, "mp.sellers.jaccard": 0.0}
    _check_weights(weights)
    combined = weighted_sum_hybrid(
        {"sn.graph.no": rec([("x", 1.0)]), "mp.sellers.jaccard": rec([("y", 1.0)])}, weights, 10
    )
    assert combined.item_ids() == ("x",)


def test_derive_hybrid_weights_all_zero_is_an_error():
    with pytest.raises(ValueError, match="no informative component"):
        _check_weights({"sn.graph.no": 0.0, "most_popular": 0.0})
    with pytest.raises(ValueError, match="finite and non-negative"):
        _check_weights({"sn.graph.no": -0.1, "most_popular": 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hybrid_weights_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        _check_weights({"sn.graph.no": bad, "most_popular": 1.0})


# --- ranking laws -----------------------------------------------------------


def _random_lists(rng, n_components=3, n_items=6):
    lists = {}
    for c in range(n_components):
        items = {}
        for i in rng.sample(range(n_items), rng.randint(0, n_items)):
            items[f"p{i}"] = round(rng.random(), 3)
        lists[f"c{c}"] = rec(oracles.ranked(items, None if not items else len(items)))
    return lists


# rows of the block combiner's edge cases, over the components of _random_lists
EDGE_ROWS = (
    {"c0": rec([]), "c1": rec([("p1", 0.3), ("p2", 0.2)]), "c2": rec([])},  # empty component rows
    {"c0": rec([("p1", 0.5), ("p4", 0.5)]), "c1": rec([("p1", 2.0)]), "c2": rec([("p3", 1.0), ("p4", 0.0)])},
    {"c0": rec([("p2", 3.0), ("p5", 1.0)]), "c1": rec([("p0", 1.0)]), "c2": rec([("p2", 4.0), ("p5", 2.0)])},
    {"c0": rec([]), "c1": rec([]), "c2": rec([])},
)


def _loop_hybrid(lists, weights, n):
    """The normalized weighted-sum hybrid as loops over a dict, the reference for normalized_rows and weighted_rows:
    min-max per list (a span of 0 gives 1.0), then weight × score added in sorted component order from 0.0."""
    combined = {}
    for c in sorted(lists):
        scores = [score for _, score in lists[c].items]
        low, high = min(scores, default=0.0), max(scores, default=0.0)
        for item, score in lists[c].items if weights.get(c, 0.0) > 0 else ():
            normalized = 1.0 if high == low else (score - low) / (high - low)
            combined[item] = combined.get(item, 0.0) + weights[c] * normalized
    return tuple(oracles.ranked(combined, n))


def _block_hybrid(rows, weights, n):
    """weighted_rows over the normalized_rows of each component's block of ``rows``, read back as (id, score) rows."""
    table = sorted({item for row in rows for made in row.values() for item in made.item_ids()})
    parts = []
    for c in sorted(weights):
        width = max(len(row[c]) for row in rows)
        codes, scores = np.full((len(rows), width), -1, np.int32), np.zeros((len(rows), width))
        for r, row in enumerate(rows):
            for i, (item, score) in enumerate(row[c].items):
                codes[r, i], scores[r, i] = table.index(item), score
        if weights[c] > 0:
            parts.append((codes, normalized_rows(codes, scores), weights[c]))
    codes, scores = weighted_rows(parts, len(rows), n, len(table))
    return [tuple((table[c], s) for c, s in zip(*row) if c >= 0) for row in zip(codes.tolist(), scores.tolist())]


def test_hybrid_scaling_invariance_random_cases():
    rng = random.Random(1234)
    rows = list(EDGE_ROWS)
    for _ in range(300):
        lists = _random_lists(rng)
        rows.append(lists)
        weights = {c: rng.random() for c in lists}
        if not any(weights.values()):
            continue
        scale = rng.uniform(0.01, 50)
        base = weighted_sum_hybrid(lists, weights, 5)
        scaled = weighted_sum_hybrid(lists, {c: w * scale for c, w in weights.items()}, 5)
        assert base.item_ids() == scaled.item_ids()
    # the block combiner and the one-row hybrid equal the loops row by row, without a numpy warning: on empty and
    # constant component rows, a weighted sum of exactly 0.0, all-zero weights and n past the item table (6 items)
    sums = [weighted_sum_hybrid({c: normalize_scores(made) for c, made in row.items()}, {"c0": 1.0, "c2": 0.5}, 3)
            for row in EDGE_ROWS]  # c0 of the second row is constant, and p5 of the third sums to 0.0 in c0 and c2
    assert sums[1].items[0] == ("p1", 1.0) and sums[2].items == (("p2", 1.5), ("p5", 0.0)) and sums[3].items == ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in ({"c0": 0.7, "c1": 0.3, "c2": 0.11}, {"c0": 0.0, "c1": 0.7, "c2": 0.0}, dict.fromkeys(lists, 0)):
            for n in (1, 5, 9):
                expected = [_loop_hybrid(row, weights, n) for row in rows]
                assert _block_hybrid(rows, weights, n) == expected
                assert [weighted_sum_hybrid({c: normalize_scores(made) for c, made in row.items()}, weights, n).items
                        for row in rows] == expected


def test_eq10_monotonicity_adding_owner_never_decreases_score():
    owned = EntitySets({"v1": frozenset({"p1"}), "v2": frozenset({"p1", "p2"}), "t": frozenset()}, USERS)
    small = cf_products(SimilarityMatrixSlice.from_pairs("t", (("v1", 0.5),), USERS), owned, 10)
    grown = cf_products(SimilarityMatrixSlice.from_pairs("t", (("v1", 0.5), ("v2", 0.2)), USERS), owned, 10)
    assert dict(grown.items)["p1"] >= dict(small.items)["p1"]


def test_lists_obey_length_and_tie_break():
    corpus = make_corpus(
        products=[(f"p{i}", "s", ()) for i in range(5)],
        purchases=[("a", f"p{i}") for i in range(5)] + [("b", f"p{i}") for i in range(5)],
    )
    top = most_popular(corpus, "product", 3)
    assert len(top) == 3
    assert top.item_ids() == ("p0", "p1", "p2")  # all tied at 2, id order
