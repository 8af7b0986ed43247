import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from marketrec.graphs import InteractionGraph, build_social_graph
from marketrec.simfeatures import (
    ALL_FEATURE_IDS,
    DEFAULT_K,
    FeatureSpec,
    SimilarityContext,
    UnknownFeatureError,
    UnknownUserError,
    adamic_adar,
    common_entities,
    common_neighbors,
    directed_interactions,
    jaccard_entities,
    jaccard_neighbors,
    neighborhood_overlap,
    parse_feature_id,
    preferential_attachment,
    total_entities,
)

from helpers import make_corpus
import oracles


def graph_from_edges(edges, extra=()):
    corpus = make_corpus(social=[(u, v, "love") for u, v in edges], extra_users=extra)
    return build_social_graph(corpus)


# --- content features ---------------------------------------------------


def test_common_entities():
    assert common_entities({"a", "b", "c"}, {"b", "c", "d"}) == 2
    assert common_entities(set(), {"a"}) == 0
    x = {"p", "q", "r"}
    assert common_entities(x, x) == 3


def test_total_entities():
    assert total_entities({"a", "b", "c"}, {"b", "c", "d"}) == 4
    assert total_entities(set(), set()) == 0
    assert total_entities({"a", "b"}, {"c", "d", "e"}) == 5


def test_jaccard_entities():
    assert jaccard_entities({"a", "b", "c"}, {"b", "c", "d"}) == 0.5
    assert jaccard_entities({"x"}, {"x"}) == 1.0
    assert jaccard_entities(set(), set()) == 0.0


# --- network features ---------------------------------------------------


def test_directed_interactions_one_direction_only():
    corpus = make_corpus(
        social=[("a", "b", "love"), ("a", "b", "comment"), ("b", "a", "wallpost")]
    )
    assert directed_interactions(corpus, "a", "b") == 2
    assert directed_interactions(corpus, "b", "a") == 1
    assert directed_interactions(corpus, "a", "c") == 0


def test_common_neighbors_path_and_k4():
    path = graph_from_edges([("a", "c"), ("c", "b")])
    assert common_neighbors(path, "a", "b") == 1
    lonely = graph_from_edges([], extra=("u", "v"))
    assert common_neighbors(lonely, "u", "v") == 0
    users = ["w", "x", "y", "z"]
    k4 = graph_from_edges([(u, v) for i, u in enumerate(users) for v in users[i + 1 :]])
    for i, u in enumerate(users):
        for v in users[i + 1 :]:
            assert common_neighbors(k4, u, v) == 2


def test_jaccard_neighbors():
    shared = graph_from_edges([("u", "c"), ("v", "c")])
    assert jaccard_neighbors(shared, "u", "v") == 1.0
    disjoint = graph_from_edges([("u", "c"), ("v", "d")])
    assert jaccard_neighbors(disjoint, "u", "v") == 0.0
    mixed = graph_from_edges([("u", "c"), ("u", "d"), ("v", "d"), ("v", "e")])
    assert jaccard_neighbors(mixed, "u", "v") == pytest.approx(1 / 3)


def test_adamic_adar_values():
    # one shared neighbour z of degree 2: 1/ln(2)
    graph = graph_from_edges([("u", "z"), ("v", "z")])
    assert adamic_adar(graph, "u", "v") == pytest.approx(1 / math.log(2), abs=1e-12)
    # shared neighbours of degree 2 and 4: 1/ln(2) + 1/ln(4)
    graph = graph_from_edges(
        [("u", "z1"), ("v", "z1"), ("u", "z2"), ("v", "z2"), ("z2", "w1"), ("z2", "w2")]
    )
    expected = 1 / math.log(2) + 1 / math.log(4)
    assert adamic_adar(graph, "u", "v") == pytest.approx(expected, abs=1e-12)
    assert adamic_adar(graph, "z1", "w1") == 0.0  # disjoint neighbourhoods


def test_adamic_adar_skips_degree_one_shared_neighbour():
    # malformed adjacency (v missing from z's neighbours) would hit log(1)
    graph = InteractionGraph(frozenset("uvz"), {("u", "z"): 1})
    assert adamic_adar(graph, "u", "v") == 0.0


def test_neighborhood_overlap():
    twins = graph_from_edges([("u", "c"), ("v", "c")])
    assert neighborhood_overlap(twins, "u", "v") == 0.5
    disjoint = graph_from_edges([("u", "c"), ("v", "d")])
    assert neighborhood_overlap(disjoint, "u", "v") == 0.0
    mixed = graph_from_edges(
        [("u", "c"), ("u", "d"), ("v", "d"), ("v", "e"), ("v", "f")]
    )
    assert neighborhood_overlap(mixed, "u", "v") == pytest.approx(1 / 5)
    empty = graph_from_edges([], extra=("u", "v"))
    assert neighborhood_overlap(empty, "u", "v") == 0.0


def test_preferential_attachment():
    graph = graph_from_edges(
        [("u", "a"), ("u", "b"), ("u", "c"), ("v", "a"), ("v", "b"), ("v", "c"), ("v", "d")]
    )
    assert preferential_attachment(graph, "u", "v") == 12
    assert preferential_attachment(graph, "u", "nobody") == 0
    pair = graph_from_edges([("x", "y")])
    assert preferential_attachment(pair, "x", "y") == 1


# --- feature identifiers ------------------------------------------------


def test_feature_id_roundtrip():
    assert len(ALL_FEATURE_IDS) == 35
    for feature_id in ALL_FEATURE_IDS:
        spec = parse_feature_id(feature_id)
        assert spec.feature_id == feature_id
        if spec.family == "content":
            assert spec.entity_kind is not None and spec.graph is None
        else:
            assert spec.graph is not None and spec.entity_kind is None


def test_known_feature_id_shapes():
    spec = parse_feature_id("sn.graph.no")
    assert spec == FeatureSpec("social", "network", "neighborhood_overlap", graph="social")
    spec = parse_feature_id("mp.purchases.jaccard")
    assert spec.entity_kind == "purchases"
    assert parse_feature_id("loc.graph.aa").graph == "colocation"


def test_unknown_feature_ids_rejected():
    for bad in ("mp.bogus.jaccard", "sn.graph.ra", "loc.graph.directed", "xx.purchases.common"):
        with pytest.raises(UnknownFeatureError):
            parse_feature_id(bad)


# --- properties ---------------------------------------------------------

_sets = st.frozensets(st.sampled_from("abcdefghij"), max_size=8)


@given(_sets, _sets)
def test_content_feature_laws(a, b):
    assert common_entities(a, b) == common_entities(b, a)
    assert total_entities(a, b) == total_entities(b, a)
    assert jaccard_entities(a, b) == jaccard_entities(b, a)
    assert 0.0 <= jaccard_entities(a, b) <= 1.0
    assert common_entities(a, b) <= min(len(a), len(b)) <= max(len(a), len(b)) <= total_entities(a, b)
    if total_entities(a, b) > 0:
        assert jaccard_entities(a, b) == common_entities(a, b) / total_entities(a, b)


_edges = st.lists(
    st.tuples(
        st.integers(0, 9).map("u{}".format), st.integers(0, 9).map("u{}".format)
    ).filter(lambda e: e[0] != e[1]),
    max_size=25,
)


@given(_edges, st.integers(0, 9), st.integers(0, 9))
def test_network_feature_laws(edges, i, j):
    graph = graph_from_edges(edges, extra=("u0",))
    u, v = f"u{i}", f"u{j}"
    for feature in (common_neighbors, jaccard_neighbors, adamic_adar,
                    neighborhood_overlap, preferential_attachment):
        assert feature(graph, u, v) == feature(graph, v, u) >= 0
    assert 0.0 <= jaccard_neighbors(graph, u, v) <= 1.0
    assert 0.0 <= neighborhood_overlap(graph, u, v) <= 0.5


# --- k-nearest neighbours -----------------------------------------------


def _toy_context():
    corpus = make_corpus(
        products=[("p1", "s1", ("A",)), ("p2", "s1", ("B",)), ("p3", "s2", ())],
        purchases=[
            ("u1", "p1"), ("u1", "p2"),
            ("u2", "p1"), ("u2", "p2"),
            ("u3", "p1"),
            ("u4", "p3"),
        ],
        social=[("u1", "u2", "love"), ("u2", "u3", "comment")],
        extra_users=("u5",),
    )
    return SimilarityContext(corpus)


def test_k_nearest_empty_for_user_without_data():
    context = _toy_context()
    for feature_id in ("mp.purchases.jaccard", "mp.purchases.total", "sn.graph.cn", "sn.graph.pa"):
        assert context.k_nearest(feature_id, "u5", 3).scored == ()


def test_k_nearest_unknown_user_raises():
    context = _toy_context()
    with pytest.raises(UnknownUserError):
        context.k_nearest("mp.purchases.jaccard", "ghost", 3)


def test_k_nearest_tie_break_ascending_id():
    corpus = make_corpus(
        purchases=[
            ("t", "p1"), ("t", "p2"),
            ("d", "p1"), ("d", "p2"),
            ("b", "p1"), ("b", "p2"),
            ("a", "p1"), ("a", "p2"),
            ("c", "p1"), ("c", "p2"),
            ("e", "p1"),
        ],
        products=[("p1", "s", ()), ("p2", "s", ())],
    )
    context = SimilarityContext(corpus)
    slice_ = context.k_nearest("mp.purchases.common", "t", 2)
    # sims: a=b=c=d=2, e=1; k ends inside the tie group, smaller ids are kept
    assert slice_.users() == ("a", "b")
    assert [s for _, s in slice_.scored] == [2.0, 2.0]


def test_k_nearest_total_tie_cut():
    # unions with t: a=3 from the smaller set, b=3 from the larger one, c=2
    corpus = make_corpus(
        products=[(f"p{i}", "s", ()) for i in range(1, 7)],
        purchases=[
            ("t", "p1"),
            ("b", "p1"), ("b", "p2"), ("b", "p3"),
            ("a", "p4"), ("a", "p5"),
            ("c", "p6"),
        ],
    )
    context = SimilarityContext(corpus)
    assert context.k_nearest("mp.purchases.total", "t", 1).scored == (("a", 3.0),)
    assert context.k_nearest("mp.purchases.total", "t", 2).scored == (("a", 3.0), ("b", 3.0))


def test_k_nearest_common_neighbours_tie_cut():
    edges = [("t", "z1"), ("t", "z2"), ("e", "z1")]
    edges += [(u, z) for u in "dbca" for z in ("z1", "z2")]
    context = SimilarityContext(make_corpus(social=[(u, v, "love") for u, v in edges]))
    assert context.k_nearest("sn.graph.cn", "t", 2).scored == (("a", 2.0), ("b", 2.0))


def test_k_nearest_preferential_attachment_by_degree():
    # degrees: h=5; a, b, c, d=2; e=1; i is isolated
    edges = [("h", u) for u in "dcbae"] + [("a", "b"), ("c", "d")]
    corpus = make_corpus(social=[(u, v, "love") for u, v in edges], extra_users=("i",))
    context = SimilarityContext(corpus)
    # k ends inside the group of equal degrees
    assert context.k_nearest("sn.graph.pa", "e", 3).scored == (("h", 5.0), ("a", 2.0), ("b", 2.0))
    # the highest-degree target is skipped without shortening the list
    assert context.k_nearest("sn.graph.pa", "h", 2).scored == (("a", 10.0), ("b", 10.0))
    # k beyond the non-isolated vertices returns all of them, never "i"
    assert context.k_nearest("sn.graph.pa", "h", 100).users() == ("a", "b", "c", "d", "e")
    assert context.k_nearest("sn.graph.pa", "i", 100).scored == ()


def test_k_nearest_keeps_only_positive_and_truncates():
    context = _toy_context()
    slice_ = context.k_nearest("mp.purchases.common", "u1", 10)
    assert slice_.users() == ("u2", "u3")  # u4 shares nothing, u5 has nothing
    assert len(context.k_nearest("mp.purchases.common", "u1", 1)) == 1


def test_k_nearest_total_entities_scores_all_other_users():
    context = _toy_context()
    slice_ = context.k_nearest("mp.purchases.total", "u3", 10)
    # the union against a non-empty target is positive for every other user,
    # even u5 who owns nothing; the feature is kept exactly as defined
    assert set(slice_.users()) == {"u1", "u2", "u4", "u5"}
    assert dict(slice_.scored)["u5"] == 1.0


def test_directed_symmetrized_for_neighbourhoods():
    corpus = make_corpus(
        social=[("a", "b", "love"), ("a", "b", "love"), ("c", "a", "comment")]
    )
    context = SimilarityContext(corpus)
    assert context.k_nearest("sn.graph.directed", "a", 5).scored == (("b", 2.0), ("c", 1.0))
    # the pure feature stays one-directional
    assert directed_interactions(corpus, "a", "c") == 0


def test_k_nearest_matches_bruteforce_oracle(small_corpus):
    context = SimilarityContext(small_corpus)
    owned = oracles.purchase_sets(small_corpus.purchases)
    users = sorted(small_corpus.users)

    def score(target, candidate):
        return oracles.content_score(owned.get(target, set()), owned.get(candidate, set()), "jaccard")

    for target in users[::5]:
        expected = oracles.knn(users, target, 7, score)
        actual = context.k_nearest("mp.purchases.jaccard", target, 7)
        assert target not in actual.users()
        assert all(sim > 0 for _, sim in actual.scored)
        assert [u for u, _ in expected] == list(actual.users())
        for (_, want), (_, got) in zip(expected, actual.scored):
            assert got == pytest.approx(want, abs=1e-12)


def test_k_nearest_oracle_on_full_sized_corpus(planted_corpus):
    context = SimilarityContext(planted_corpus)
    users = sorted(planted_corpus.users)
    social_adj = oracles.adjacency_from_social(planted_corpus.social)
    monitored = oracles.location_sets(planted_corpus.locations, "monitored")

    def aa_social(target, candidate):
        return oracles.network_score(social_adj, target, candidate, "aa")

    def common_monitored(target, candidate):
        return oracles.content_score(
            monitored.get(target, set()), monitored.get(candidate, set()), "common"
        )

    for feature_id, score in (("sn.graph.aa", aa_social), ("loc.monitored.common", common_monitored)):
        for target in users[::4]:
            expected = oracles.knn(users, target, 40, score)
            actual = context.k_nearest(feature_id, target, 40)
            assert [u for u, _ in expected] == list(actual.users())
            for (_, want), (_, got) in zip(expected, actual.scored):
                assert got == pytest.approx(want, abs=1e-9)


def test_context_scores_match_oracle_all_features(small_corpus):
    context = SimilarityContext(small_corpus)
    users = sorted(small_corpus.users)[:12]
    sellers = oracles.seller_sets(small_corpus.purchases, small_corpus.products)
    social_adj = oracles.adjacency_from_social(small_corpus.social)
    event_adj = oracles.adjacency_from_colocation(small_corpus.locations)
    for u in users:
        for v in users:
            if u == v:
                continue
            want = oracles.content_score(sellers.get(u, set()), sellers.get(v, set()), "common")
            assert context.score("mp.sellers.common", u, v) == want
            for suffix in oracles.NETWORK_FEATURES:
                want = oracles.network_score(social_adj, u, v, suffix)
                assert context.score(f"sn.graph.{suffix}", u, v) == pytest.approx(want, abs=1e-12)
                want = oracles.network_score(event_adj, u, v, suffix)
                assert context.score(f"loc.graph.{suffix}", u, v) == pytest.approx(want, abs=1e-12)


IDLE_USER = "zz-idle"


@pytest.fixture(scope="module")
def planted_context(planted_corpus):
    """The planted corpus plus one user with no data for any feature."""
    corpus = dataclasses.replace(
        planted_corpus, users=planted_corpus.users | {IDLE_USER}, _profile_cache={}
    )
    return SimilarityContext(corpus)


@pytest.mark.parametrize("feature_id", ALL_FEATURE_IDS)
def test_k_nearest_equals_exact_pairwise_ranking(planted_context, feature_id):
    """Exact ``==`` with score() over every pair: no tolerance on any float."""
    spec = parse_feature_id(feature_id)
    users = sorted(planted_context.corpus.users)
    if spec.family == "content":
        sets = planted_context.entity_sets(spec.entity_kind)
        size = lambda user: len(sets.get(user, ()))  # noqa: E731
    else:
        size = planted_context.graph(spec.graph).degree
    largest = min(users, key=lambda user: (-size(user), user))
    for target in sorted({*users[::25], IDLE_USER, largest}):
        ranking = sorted(
            ((v, planted_context.score(spec, target, v)) for v in users if v != target),
            key=lambda item: (-item[1], item[0]),
        )
        expected = tuple(item for item in ranking if item[1] > 0) if size(target) else ()
        for k in sorted({1, len(expected) // 2 + 1, DEFAULT_K, len(expected) + 1}):
            assert planted_context.k_nearest(spec, target, k).scored == expected[:k]
