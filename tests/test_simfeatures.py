import dataclasses
import math
import random
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marketrec import graphs, simfeatures
from marketrec.corpus import ENTITY_KINDS, load_corpus
from marketrec.recommender import cf_categories, cf_products
from marketrec.simfeatures import (
    ALL_FEATURE_IDS,
    DEFAULT_K,
    EntitySets,
    FeatureSpec,
    SimilarityContext,
    SimilarityMatrixSlice,
    UnknownFeatureError,
    UnknownUserError,
    parse_feature_id,
    top_n,
)
from marketrec.synth import SyntheticSpec, generate

from helpers import make_corpus, oracle_knn, oracle_scorer
import oracles


def similarity(context, feature_id, u, v):
    """v's score in u's full neighbourhood; 0.0 when v is absent from it."""
    neighbourhood = context.k_nearest(feature_id, u, len(context.corpus.users))
    return dict(neighbourhood.scored).get(v, 0.0)


def groups_context(**groups):
    """A context whose users, named by keyword, hold the given group sets."""
    memberships = [(user, group) for user, held in groups.items() for group in held]
    return SimilarityContext(make_corpus(memberships=memberships, extra_users=tuple(groups)))


def graph_context(edges, extra=()):
    return SimilarityContext(make_corpus(social=[(u, v, "love") for u, v in edges], extra_users=extra))


# --- content features ---------------------------------------------------


def test_common_entities():
    context = groups_context(u={"a", "b", "c"}, v={"b", "c", "d"}, e=set(), f={"a"},
                             x={"p", "q", "r"}, y={"p", "q", "r"})
    assert similarity(context, "sn.groups.common", "u", "v") == 2
    assert similarity(context, "sn.groups.common", "e", "f") == 0
    assert similarity(context, "sn.groups.common", "x", "y") == 3


def test_total_entities():
    context = groups_context(u={"a", "b", "c"}, v={"b", "c", "d"}, e=set(), f=set(),
                             x={"a", "b"}, y={"c", "d", "e"})
    assert similarity(context, "sn.groups.total", "u", "v") == 4
    assert similarity(context, "sn.groups.total", "e", "f") == 0
    assert similarity(context, "sn.groups.total", "x", "y") == 5


def test_jaccard_entities():
    context = groups_context(u={"a", "b", "c"}, v={"b", "c", "d"}, x={"x"}, y={"x"},
                             e=set(), f=set())
    assert similarity(context, "sn.groups.jaccard", "u", "v") == 0.5
    assert similarity(context, "sn.groups.jaccard", "x", "y") == 1.0
    assert similarity(context, "sn.groups.jaccard", "e", "f") == 0.0


# --- network features ---------------------------------------------------


def test_directed_interactions_one_direction_only():
    corpus = make_corpus(
        social=[("a", "b", "love"), ("a", "b", "comment"), ("b", "a", "wallpost"), ("c", "a", "love")]
    )
    context = SimilarityContext(corpus)
    # neighbourhoods read the larger direction from either end
    assert similarity(context, "sn.graph.directed", "a", "b") == 2
    assert similarity(context, "sn.graph.directed", "b", "a") == 2
    # a one-way pair reads its one count from both ends
    assert similarity(context, "sn.graph.directed", "a", "c") == 1
    assert similarity(context, "sn.graph.directed", "c", "a") == 1
    assert similarity(context, "sn.graph.directed", "b", "c") == 0


def test_common_neighbors_path_and_k4():
    path = graph_context([("a", "c"), ("c", "b")])
    assert similarity(path, "sn.graph.cn", "a", "b") == 1
    lonely = graph_context([], extra=("u", "v"))
    assert similarity(lonely, "sn.graph.cn", "u", "v") == 0
    users = ["w", "x", "y", "z"]
    k4 = graph_context([(u, v) for i, u in enumerate(users) for v in users[i + 1 :]])
    for i, u in enumerate(users):
        for v in users[i + 1 :]:
            assert similarity(k4, "sn.graph.cn", u, v) == 2


def test_jaccard_neighbors():
    shared = graph_context([("u", "c"), ("v", "c")])
    assert similarity(shared, "sn.graph.jaccard", "u", "v") == 1.0
    disjoint = graph_context([("u", "c"), ("v", "d")])
    assert similarity(disjoint, "sn.graph.jaccard", "u", "v") == 0.0
    mixed = graph_context([("u", "c"), ("u", "d"), ("v", "d"), ("v", "e")])
    assert similarity(mixed, "sn.graph.jaccard", "u", "v") == pytest.approx(1 / 3)


def test_adamic_adar_values():
    # one shared neighbour z of degree 2: 1/ln(2)
    context = graph_context([("u", "z"), ("v", "z")])
    assert similarity(context, "sn.graph.aa", "u", "v") == pytest.approx(1 / math.log(2), abs=1e-12)
    # shared neighbours of degree 2 and 4: 1/ln(2) + 1/ln(4)
    context = graph_context(
        [("u", "z1"), ("v", "z1"), ("u", "z2"), ("v", "z2"), ("z2", "w1"), ("z2", "w2")]
    )
    expected = 1 / math.log(2) + 1 / math.log(4)
    assert similarity(context, "sn.graph.aa", "u", "v") == pytest.approx(expected, abs=1e-12)
    assert similarity(context, "sn.graph.aa", "z1", "w1") == 0.0  # disjoint neighbourhoods


def test_adamic_adar_skips_degree_one_shared_neighbour():
    # a neighbour of degree 1 would divide by log(1) = 0
    context = SimilarityContext(make_corpus(social=[("u", "z", "love")], extra_users=("v",)))
    assert context.graph("social").degree("z") == 1
    assert similarity(context, "sn.graph.aa", "u", "v") == 0.0


def test_adamic_adar_weights_come_from_math_log():
    """Each term is ``1.0 / math.log(degree)``, the oracle's; numpy's log rounds 9170 differently."""
    spokes = [f"s{i:04d}" for i in range(9170)]
    context = graph_context([("hub", spoke) for spoke in spokes])
    weight = 1.0 / math.log(9170)
    assert weight != 1.0 / float(np.log(9170))  # so weights taken from np.log fail this test
    assert context.k_nearest("sn.graph.aa", spokes[0], 1).scored == ((spokes[1], weight),)


def test_neighborhood_overlap():
    twins = graph_context([("u", "c"), ("v", "c")])
    assert similarity(twins, "sn.graph.no", "u", "v") == 0.5
    disjoint = graph_context([("u", "c"), ("v", "d")])
    assert similarity(disjoint, "sn.graph.no", "u", "v") == 0.0
    mixed = graph_context(
        [("u", "c"), ("u", "d"), ("v", "d"), ("v", "e"), ("v", "f")]
    )
    assert similarity(mixed, "sn.graph.no", "u", "v") == pytest.approx(1 / 5)
    empty = graph_context([], extra=("u", "v"))
    assert similarity(empty, "sn.graph.no", "u", "v") == 0.0


def test_preferential_attachment():
    context = graph_context(
        [("u", "a"), ("u", "b"), ("u", "c"), ("v", "a"), ("v", "b"), ("v", "c"), ("v", "d")],
        extra=("nobody",),
    )
    assert similarity(context, "sn.graph.pa", "u", "v") == 12
    assert similarity(context, "sn.graph.pa", "u", "nobody") == 0
    pair = graph_context([("x", "y")])
    assert similarity(pair, "sn.graph.pa", "x", "y") == 1


# --- feature identifiers ------------------------------------------------


def test_feature_id_roundtrip():
    assert len(ALL_FEATURE_IDS) == 35
    assert len({parse_feature_id(feature_id) for feature_id in ALL_FEATURE_IDS}) == 35
    for feature_id in ALL_FEATURE_IDS:
        spec = parse_feature_id(feature_id)
        _, selector, suffix = feature_id.split(".")
        assert spec.feature == suffix
        if selector == "graph":
            assert spec.graph is not None and spec.entity_kind is None
        else:
            assert spec.entity_kind is not None and spec.graph is None


def test_known_feature_id_shapes():
    spec = parse_feature_id("sn.graph.no")
    assert spec == FeatureSpec("no", graph="social")
    assert parse_feature_id("mp.purchases.jaccard") == FeatureSpec("jaccard", entity_kind="purchases")
    assert parse_feature_id("loc.graph.aa").graph == "colocation"


def test_unknown_feature_ids_rejected():
    for bad in ("mp.bogus.jaccard", "sn.graph.ra", "loc.graph.directed", "xx.purchases.common"):
        with pytest.raises(UnknownFeatureError):
            parse_feature_id(bad)


# --- properties ---------------------------------------------------------

_sets = st.frozensets(st.sampled_from("abcdefghij"), max_size=8)


@given(_sets, _sets)
def test_content_feature_laws(a, b):
    context = groups_context(u=a, v=b)
    common, total, jaccard = (
        [similarity(context, f"sn.groups.{suffix}", x, y) for x, y in (("u", "v"), ("v", "u"))]
        for suffix in ("common", "total", "jaccard")
    )
    # a target without data gets an empty neighbourhood, even under total
    assert total == [len(a | b) if a else 0, len(a | b) if b else 0]
    assert common[0] == common[1] <= min(len(a), len(b))
    assert jaccard[0] == jaccard[1]
    assert 0.0 <= jaccard[0] <= 1.0
    for c, t, j in zip(common, total, jaccard):
        if t > 0:
            assert j == c / t


_edges = st.lists(
    st.tuples(
        st.integers(0, 9).map("u{}".format), st.integers(0, 9).map("u{}".format)
    ).filter(lambda e: e[0] != e[1]),
    max_size=25,
)


@given(_edges, st.integers(0, 9), st.integers(0, 9))
def test_network_feature_laws(edges, i, j):
    context = graph_context(edges, extra=tuple(f"u{n}" for n in range(10)))
    u, v = f"u{i}", f"u{j}"
    for suffix in ("directed", *oracles.NETWORK_FEATURES):
        feature_id = f"sn.graph.{suffix}"
        assert similarity(context, feature_id, u, v) == similarity(context, feature_id, v, u) >= 0
    assert 0.0 <= similarity(context, "sn.graph.jaccard", u, v) <= 1.0
    assert 0.0 <= similarity(context, "sn.graph.no", u, v) <= 0.5


_members = st.integers(0, 13).map("u{}".format)
_events = st.lists(st.lists(_members, min_size=1, max_size=10), max_size=6)
_pairs = st.lists(st.tuples(_members, _members).filter(lambda e: e[0] != e[1]), max_size=30)
GRAPH_FEATURE_IDS = tuple(f for f in ALL_FEATURE_IDS if parse_feature_id(f).graph is not None)


@given(_events, _pairs)
def test_graph_features_match_oracle_on_random_graphs(events, pairs):
    """Overlapping events of mixed sizes and random pairs: every target, truncated and full k, exact ``==``.

    Few users and many ties exercise the cut at the k-th score and the tie order.
    """
    locations = [(u, f"l{e}", "monitored", f"e{e}") for e, attendees in enumerate(events) for u in attendees]
    corpus = make_corpus(
        social=[(u, v, "love") for u, v in pairs],
        locations=locations,
        extra_users=tuple(f"u{n}" for n in range(14)),
    )
    context = SimilarityContext(corpus)
    users = sorted(corpus.users)
    # k_nearest indexes a graph's rows by the context's user positions
    assert context.graph("social").users == context.users == context.graph("colocation").users
    for feature_id in GRAPH_FEATURE_IDS:
        scorer = oracle_scorer(corpus, feature_id)
        for target in users:
            expected = oracle_knn(users, target, len(users), scorer)
            for k in sorted({1, len(expected) // 2 + 1, len(users)}):
                got = context.k_nearest(feature_id, target, k).scored
                assert got == expected[:k], (feature_id, target, k)


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


def test_k_nearest_total_tie_at_the_stop_point():
    # t = {p1, p2}. By size, z = {p1, p3, p4} comes first and scores 2 + 3 - 1 = 4;
    # a = {p3, p4} scores 4 too, equal to its bound n + size, so the walk must not stop
    # before it; b = {p1} scores 2 + 1 - 1 = 2
    corpus = make_corpus(
        products=[(f"p{i}", "s", ()) for i in range(1, 5)],
        purchases=[
            ("t", "p1"), ("t", "p2"),
            ("z", "p1"), ("z", "p3"), ("z", "p4"),
            ("a", "p3"), ("a", "p4"),
            ("b", "p1"),
        ],
        extra_users=("e",),
    )
    context = SimilarityContext(corpus)
    assert context.k_nearest("mp.purchases.total", "t", 1).scored == (("a", 4.0),)
    assert context.k_nearest("mp.purchases.total", "t", 2).scored == (("a", 4.0), ("z", 4.0))
    users = sorted(corpus.users)
    scorer = oracle_scorer(corpus, "mp.purchases.total")
    for target in users:
        expected = oracle_knn(users, target, len(users), scorer)
        for k in range(1, len(users) + 1):
            assert context.k_nearest("mp.purchases.total", target, k).scored == expected[:k]


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


def test_slices_hold_at_most_32_bytes_per_neighbour(tmp_path):
    generate(SyntheticSpec(users=1000, clusters=20, noise=0.1, seed=1), tmp_path)
    context = SimilarityContext(load_corpus(tmp_path))
    features = ("loc.graph.no", "mp.purchases.jaccard")
    for feature in features:  # graphs and indexes are built outside the trace
        context.k_nearest(feature, context.users[0])
    tracemalloc.start()
    try:
        held = [context.k_nearest(feature, user) for feature in features for user in context.users]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = sum(map(len, held))
    assert len(held) == 2000 and pairs > 40_000
    assert size / pairs <= 32  # (id, float) tuples took about 90


def test_slice_views_read_positions_through_the_context_users(small_corpus):
    context = SimilarityContext(small_corpus)
    for feature_id in ("mp.purchases.jaccard", "sn.graph.aa", "loc.graph.no", "mp.sellers.total"):
        for target in context.users[::4]:
            slice_ = context.k_nearest(feature_id, target)
            names = [context.users[p] for p in slice_.positions.tolist()]
            assert slice_.universe is context.users and slice_.target == target
            assert slice_.positions.dtype == np.int32 and slice_.scores.dtype == np.float64
            assert slice_.scored == tuple(zip(names, slice_.scores.tolist()))
            assert slice_.users() == tuple(names) and len(slice_) == len(names)
            assert slice_.scored is slice_.scored
            rebuilt = SimilarityMatrixSlice.from_pairs(target, slice_.scored, context.users)
            assert rebuilt == slice_ and rebuilt.positions.tolist() == slice_.positions.tolist()
    with pytest.raises(KeyError):
        SimilarityMatrixSlice.from_pairs("nobody", (), context.users)


def test_cf_rejects_a_slice_over_another_user_list(small_corpus):
    context, other = SimilarityContext(small_corpus), SimilarityContext(small_corpus)
    purchase_sets = context.entity_sets("purchases")
    target = max(context.users, key=lambda user: len(purchase_sets[user]))
    own, foreign = (c.k_nearest("mp.purchases.jaccard", target) for c in (context, other))
    assert foreign.universe == context.users and foreign.universe is not context.users and len(foreign)
    # an equal list, though not the same object, serves these sets as the context's own does
    assert cf_products(foreign, purchase_sets) == cf_products(own, purchase_sets)
    assert cf_categories(foreign, small_corpus, purchase_sets, "top_category") == cf_categories(
        own, small_corpus, purchase_sets, "top_category"
    )
    for users in (context.users[1:], [*context.users, "zz-extra"]):  # one user fewer, one more
        unequal = dataclasses.replace(own, universe=users)
        with pytest.raises(ValueError, match="different user lists"):
            cf_products(unequal, purchase_sets)
        with pytest.raises(ValueError, match="different user lists"):
            cf_categories(unequal, small_corpus, purchase_sets, "top_category")


CF_USERS = tuple(f"u{i:02d}" for i in range(14))


@pytest.mark.parametrize("bound", [1, 45, 120, 1 << 16])
def test_cf_block_rows_equal_per_slice_sums_and_the_oracle(monkeypatch, bound):
    rng = random.Random(bound)
    products = [f"p{i}" for i in range(16)]
    owned = {user: frozenset(rng.sample(products, rng.randint(1, 6))) for user in CF_USERS[3:]}
    owned["u01"] = frozenset()  # "u00" has no purchase set at all, "u01" an empty one: as targets and neighbours
    neighbours = [("u00", 0.5), ("u01", 0.5), ("u02", 0.5)]  # "u02" owns nothing either: an all-zero row
    slices = [SimilarityMatrixSlice.from_pairs("u00", (), CF_USERS)]  # an empty slice
    for target in CF_USERS * 2:
        chosen = rng.sample([user for user in CF_USERS if user != target], rng.randint(0, 7))
        scored = sorted(((user, rng.choice([0.1, 0.2, 0.3, 0.6])) for user in chosen), key=lambda e: (-e[1], e[0]))
        slices.append(SimilarityMatrixSlice.from_pairs(target, tuple(scored), CF_USERS))
    slices += [SimilarityMatrixSlice.from_pairs(t, tuple(neighbours), CF_USERS) for t in ("u01", "u05")]
    sets = EntitySets(owned, CF_USERS)
    monkeypatch.setattr(simfeatures, "CF_BLOCK_CELLS", bound)
    cells = [len(sets.ids) + sum(len(owned.get(user, ())) for user in s.users()) for s in slices]
    blocks = []
    while len(blocks) < len(slices):
        start = len(blocks)
        kept = sets.keep_cf_sums(slices[start:])
        # the longest prefix within the bound, one slice at least: the kept block never exceeds it
        assert kept == 1 or sum(cells[start : start + kept]) <= bound
        assert start + kept == len(slices) or sum(cells[start : start + kept + 1]) > bound
        blocks += [kept] * kept
        for s in slices[start : start + kept]:
            row = sets.cf_sums(s)
            assert row.tolist() == EntitySets(owned, CF_USERS).cf_sums(s).tolist()  # the slice alone
            expected = oracles.cf_product_scores(s.scored, owned, owned.get(s.target, frozenset()))
            assert {sets.ids[p]: score for p, score in enumerate(row.tolist()) if score} == expected
    if bound == 1:  # every row exceeds the bound alone, and is kept alone
        assert set(blocks) == {1}
    elif bound < sum(cells):  # the bound cuts blocks of several rows
        assert 1 < max(blocks) < len(slices)
    else:
        assert blocks == [len(slices)] * len(slices)


class ReadRecorder(Sequence):
    """A sequence that records the indices read from it, by index or by slice."""

    def __init__(self, items):
        self.items, self.read = items, set()

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        found = self.items[index]
        self.read.update(range(len(self.items))[index] if isinstance(index, slice) else [index])
        return found


@pytest.mark.parametrize("bound", [1, 40, 100, 1 << 16])
def test_keep_cf_sums_reads_only_the_slices_a_block_can_hold(monkeypatch, bound):
    # a row takes P cells at least, so slices past CF_BLOCK_CELLS // P could never join the block
    rng = random.Random(bound)
    owned = {user: frozenset(rng.sample([f"p{i}" for i in range(16)], rng.randint(1, 4))) for user in CF_USERS}
    sets = EntitySets(owned, CF_USERS)
    monkeypatch.setattr(simfeatures, "CF_BLOCK_CELLS", bound)
    slices = [  # each user twice, with the next user as its one neighbour
        SimilarityMatrixSlice.from_pairs(target, ((CF_USERS[(i + 1) % len(CF_USERS)], 0.5),), CF_USERS)
        for i, target in enumerate(CF_USERS * 2)
    ]
    offered = ReadRecorder(slices)
    kept = sets.keep_cf_sums(offered)
    readable = max(1, bound // len(sets.ids))
    assert offered.read == set(range(min(readable, len(slices))))
    cells = np.cumsum([len(sets.ids) + sum(len(owned[user]) for user in s.users()) for s in slices])
    assert kept == max(1, np.count_nonzero(cells <= bound))  # the longest prefix within the bound, one slice at least
    for slice_ in slices[:kept]:
        assert sets.cf_sums(slice_).tolist() == EntitySets(owned, CF_USERS).cf_sums(slice_).tolist()


@pytest.mark.parametrize("kind", ["purchases", "groups"])
def test_entity_set_holders_transpose_positions(small_corpus, kind):
    sets = SimilarityContext(small_corpus).entity_sets(kind)
    users = sorted(small_corpus.users)
    ids, (indptr, indices), holders = sets.ids, sets.csr, sets.holders
    assert sets.users == users and ids == sorted(set().union(*sets.values()))
    assert indptr[0] == 0 and len(indptr) == len(users) + 1 and indices.dtype == np.int32
    transposed = {}
    for i, user in enumerate(users):
        held = indices[indptr[i]:indptr[i + 1]].tolist()
        assert [ids[entity] for entity in held] == list(sets[user])  # in set order
        for entity in held:
            transposed.setdefault(ids[entity], []).append(i)
    assert {entity: p.tolist() for entity, p in holders.items()} == transposed
    assert all(p.dtype == np.int32 for p in holders.values())
    assert sets.degrees.tolist() == [len(sets[user]) for user in users]
    assert sets.holders is sets.holders


@pytest.mark.parametrize("kind", ENTITY_KINDS)
def test_entity_set_shared_counts_match_set_intersections(small_corpus, kind):
    """A seeded sample of targets and one user holding no entity, against |sets[u] & sets[target]| for every u."""
    corpus = dataclasses.replace(small_corpus, users=small_corpus.users | {"zz-no-entities"})
    sets = SimilarityContext(corpus).entity_sets(kind)
    users = sets.users
    for t in [*random.Random(7).sample(range(len(users)), 10), users.index("zz-no-entities")]:
        own = sets.get(users[t], frozenset())
        shared = [(u, len(sets.get(user, frozenset()) & own)) for u, user in enumerate(users) if u != t]
        positions, counts = sets.shared_counts(t)
        assert positions.dtype == counts.dtype == np.int64
        assert list(zip(positions.tolist(), counts.tolist())) == [(u, c) for u, c in shared if c]


@pytest.mark.parametrize(
    "feature, name, rows",
    [
        ("sn.graph.pa", "social", {"social": [("a", "b", "love"), ("b", "c", "love"), ("a", "0", "love")]}),
        ("loc.graph.pa", "colocation", {"locations": [(user, "l1", "monitored", "e1") for user in "ab0"]}),
    ],
)
def test_graph_linking_a_user_outside_the_corpus_users_is_rejected(feature, name, rows):
    """A graph's vertices are the corpus users, so its rows are their positions; a linked "0" is not among them."""
    context = SimilarityContext(dataclasses.replace(make_corpus(**rows), users=frozenset("abc")))
    for _ in range(2):  # the graph is not cached on the way out
        with pytest.raises(ValueError, match="'0' is linked but is not a vertex"):
            context.k_nearest(feature, "b")
        assert name not in context._graphs


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


@pytest.mark.parametrize("feature_id", ALL_FEATURE_IDS)
def test_k_nearest_matches_oracle_every_feature(small_corpus, feature_id):
    """Every target's full neighbourhood equals the oracle's exactly, for every id."""
    context = SimilarityContext(small_corpus)
    scorer = oracle_scorer(small_corpus, feature_id)
    users = sorted(small_corpus.users)
    for target in users:
        got = context.k_nearest(feature_id, target, len(users)).scored
        assert got == oracle_knn(users, target, len(users), scorer), target


def test_hub_member_in_bounded_memory():
    """One event of 3,000 attendees among 3,000 users, so a member reaches every user.

    No temporary may grow with the square of the users: 3,000 x 3,000 float64 is 72 MB.
    Every two members share the other 2,998, each of degree 2,999, so all members tie and
    the oracle's slice is the k lowest other ids with the oracle's score of one such pair.
    Scoring every pair exhaustively takes the oracle about 10 s per target; the test below
    does that on a smaller hub.
    """
    users = [f"u{i:04d}" for i in range(3000)]
    corpus = make_corpus(locations=[(user, "l1", "monitored", "e1") for user in users])
    targets, features = (users[0], users[1777]), ("loc.graph.aa", "loc.graph.no", "loc.graph.jaccard")
    tracemalloc.start()
    try:
        context = SimilarityContext(corpus)
        got = {(f, t): context.k_nearest(f, t).scored for f in features for t in targets}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    aa = 0.0
    for _ in range(2998):  # the oracle's loop: one term per shared neighbour, in id order
        aa += 1.0 / math.log(2999)
    score = {"loc.graph.aa": aa, "loc.graph.no": 2998 / (2999 + 2999), "loc.graph.jaccard": 2998 / 3000}
    for (feature, target), scored in got.items():
        others = [user for user in users if user != target][:DEFAULT_K]
        assert scored == tuple((user, score[feature]) for user in others)


@pytest.mark.parametrize("feature_id", ["loc.graph.cn", "loc.graph.aa", "loc.graph.no", "loc.graph.jaccard"])
def test_hub_members_match_oracle_across_row_slices(monkeypatch, feature_id):
    """Two overlapping events, the larger of 300, read 4 rows at a time: every slice equals the oracle's."""
    monkeypatch.setattr(graphs, "CHUNK_BYTES", 4 * 56)
    users = [f"u{i:03d}" for i in range(400)]
    rows = [(user, "l1", "monitored", "e1") for user in users[:300]]
    rows += [(user, "l2", "monitored", "e2") for user in users[250:350:3]]
    corpus = make_corpus(locations=rows, extra_users=users)
    context = SimilarityContext(corpus)
    assert context.graph("colocation").rows.shape == (400, 56)
    scorer = oracle_scorer(corpus, feature_id)
    for target in (users[0], users[251], users[340], users[399]):
        assert context.k_nearest(feature_id, target).scored == oracle_knn(users, target, DEFAULT_K, scorer)



@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("feature_id", ["sn.graph.aa", "loc.graph.aa"])
def test_aa_blocks_of_unpacked_rows_match_oracle(monkeypatch, small_corpus, feature_id, rows):
    """Sparse graphs whose aa neighbours are unpacked one or three float64 rows at a time."""
    context = SimilarityContext(small_corpus)
    users = context.users
    graph = context.graph(parse_feature_id(feature_id).graph)
    weighted = [int((graph.degrees[graph.neighbor_positions(t)] > 1).sum()) for t in range(len(users))]
    assert max(weighted) > 2 * rows  # some target adds more than two blocks
    monkeypatch.setattr(graphs, "CHUNK_BYTES", rows * 8 * len(users))
    scorer = oracle_scorer(small_corpus, feature_id)
    for target in users:
        assert context.k_nearest(feature_id, target, len(users)).scored == oracle_knn(users, target, len(users), scorer)


IDLE_USER = "zz-idle"


@pytest.fixture(scope="module")
def planted_context(planted_corpus):
    """The planted corpus plus one user with no data for any feature."""
    corpus = dataclasses.replace(planted_corpus, users=planted_corpus.users | {IDLE_USER})
    return SimilarityContext(corpus)


@pytest.mark.parametrize("feature_id", ALL_FEATURE_IDS)
def test_k_nearest_equals_exact_pairwise_ranking(planted_context, feature_id):
    """Exact ``==`` with the oracle's ranking of every pair: no tolerance on any float."""
    users = sorted(planted_context.corpus.users)
    scorer = oracle_scorer(planted_context.corpus, feature_id)
    _, data = scorer
    largest = min(users, key=lambda user: (-len(data(user)), user))
    for target in sorted({*users[::25], IDLE_USER, largest}):
        expected = oracle_knn(users, target, len(users), scorer)
        for k in sorted({1, len(expected) // 2 + 1, DEFAULT_K, len(expected) + 1}):
            assert planted_context.k_nearest(feature_id, target, k).scored == expected[:k]


# --- top-n selection -----------------------------------------------------

# a few values, so most dicts tie at the cut; 0.0 occurs in hybrid lists
_tied_scores = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


@given(
    st.one_of(
        st.dictionaries(st.text("abc", max_size=3), _tied_scores, max_size=30),
        st.dictionaries(st.integers(0, 40), _tied_scores, max_size=30),
    ),
    st.data(),
)
def test_top_n_equals_full_sort(scores, data):
    n = data.draw(st.one_of(st.none(), st.integers(1, len(scores) + 1)), label="n")
    assert top_n(scores, n) == sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
