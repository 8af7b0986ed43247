import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marketrec.corpus import SocialInteraction
from marketrec import graphs
from marketrec.graphs import InteractionGraph, build_colocation_graph, build_social_graph, row_slices

from helpers import make_corpus
import oracles


def adjacency(graph):
    """Neighbour sets of the non-isolated vertices, comparable with the oracles."""
    return {user: graph.neighbors(user) for user in graph.vertices if graph.neighbors(user)}


def test_bidirectional_interactions_merge():
    corpus = make_corpus(social=[("a", "b", "love"), ("b", "a", "comment")])
    graph = build_social_graph(corpus)
    assert adjacency(graph) == {"a": {"b"}, "b": {"a"}}
    assert adjacency(graph) == oracles.adjacency_from_social(corpus.social)
    assert graph.degree("a") == graph.degree("b") == 1


def test_no_interactions_no_edges():
    corpus = make_corpus(extra_users=("a", "b"))
    graph = build_social_graph(corpus)
    assert adjacency(graph) == {}
    assert graph.vertices == {"a", "b"}


def test_three_clique_two_interactions_per_pair():
    rows = []
    for u, v in [("a", "b"), ("a", "c"), ("b", "c")]:
        rows.append((u, v, "love"))
        rows.append((v, u, "wallpost"))
    corpus = make_corpus(social=rows)
    graph = build_social_graph(corpus)
    assert adjacency(graph) == {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
    assert adjacency(graph) == oracles.adjacency_from_social(corpus.social)
    for user in "abc":
        assert graph.degree(user) == 2


def test_event_pairwise_expansion():
    corpus = make_corpus(
        locations=[
            ("a", "l1", "monitored", "e1"),
            ("b", "l1", "monitored", "e1"),
            ("c", "l1", "monitored", "e1"),
        ]
    )
    graph = build_colocation_graph(corpus)
    assert adjacency(graph) == {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
    assert adjacency(graph) == oracles.adjacency_from_colocation(corpus.locations)


def test_solo_attendee_contributes_nothing():
    corpus = make_corpus(locations=[("a", "l1", "monitored", "e1")])
    graph = build_colocation_graph(corpus)
    assert adjacency(graph) == {}
    assert graph.vertices == {"a"}


def test_overlapping_events_accumulate():
    rows = [
        ("a", "l1", "monitored", "e1"),
        ("b", "l1", "monitored", "e1"),
        ("a", "l2", "monitored", "e2"),
        ("b", "l2", "monitored", "e2"),
        ("c", "l2", "monitored", "e2"),
    ]
    corpus = make_corpus(locations=rows)
    graph = build_colocation_graph(corpus)
    assert adjacency(graph) == {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"}}
    assert adjacency(graph) == oracles.adjacency_from_colocation(corpus.locations)


def test_duplicate_attendance_counts_once():
    rows = [
        ("a", "l1", "monitored", "e1"),
        ("a", "l1", "monitored", "e1"),
        ("b", "l1", "monitored", "e1"),
    ]
    corpus = make_corpus(locations=rows)
    graph = build_colocation_graph(corpus)
    assert adjacency(graph) == {"a": {"b"}, "b": {"a"}}
    assert adjacency(graph) == oracles.adjacency_from_colocation(corpus.locations)


def test_favored_and_shared_records_ignored():
    rows = [
        ("a", "l1", "favored", None),
        ("b", "l1", "favored", None),
        ("a", "l2", "shared", None),
        ("b", "l2", "shared", None),
    ]
    graph = build_colocation_graph(make_corpus(locations=rows))
    assert adjacency(graph) == {}


def test_neighbors_isolated_edge_star():
    corpus = make_corpus(
        social=[("hub", f"leaf{i}", "love") for i in range(5)] + [("x", "y", "comment")],
        extra_users=("loner",),
    )
    graph = build_social_graph(corpus)
    assert graph.neighbors("loner") == frozenset()
    assert graph.neighbors("unknown-user") == frozenset()
    assert graph.neighbors("x") == {"y"}
    assert graph.neighbors("hub") == {f"leaf{i}" for i in range(5)}


def test_edge_cases_outside_vertices():
    # x is an endpoint, or a group member, but not a vertex
    with pytest.raises(ValueError, match="'x' is linked but is not a vertex"):
        InteractionGraph(frozenset({"a", "b", "c"}), [("a", "b"), ("b", "x")])
    with pytest.raises(ValueError, match="'x' is linked but is not a vertex"):
        InteractionGraph(frozenset({"a", "b", "c"}), groups=[{"a", "b"}, {"c", "x"}])
    # c is an isolated vertex
    graph = InteractionGraph(frozenset({"a", "b", "c", "x", "y"}), [("a", "x"), ("x", "y"), ("b", "x")])
    assert graph.neighbors("x") == {"a", "b", "y"}
    assert graph.degree("x") == 3
    assert graph.neighbors("y") == {"x"}
    assert graph.neighbors("unknown") == frozenset()
    assert graph.degree("unknown") == 0
    assert graph.degree("c") == 0


def test_graph_of_no_users_builds():
    # its rows are 0 bytes wide, so every chunked pass over them must step by at least one row
    for groups in ([], [set()]):
        graph = InteractionGraph(frozenset(), groups=groups)
        assert graph.users == [] and graph.rows.shape == (0, 0)
        assert graph.degrees.tolist() == [] and graph.list_positions.tolist() == []
        assert graph.neighbors("a") == frozenset() and graph.degree("a") == 0


def test_groups_link_every_two_members():
    graph = InteractionGraph(frozenset("abcde"), [("a", "b")], groups=[{"b", "c", "d"}, {"e"}])
    neighbours = {user: graph.neighbors(user) for user in "abcde"}
    assert neighbours == {"a": {"b"}, "b": {"a", "c", "d"}, "c": {"b", "d"}, "d": {"b", "c"}, "e": set()}


def test_packed_row_layout():
    """Bit i of row j (little-endian, byte i // 8) is set iff users[i] and users[j] share an edge."""
    users = [f"u{i:03d}" for i in range(100)]
    edges = [(users[i], users[j]) for i in range(70) for j in range(i + 1, 70) if (i * j) % 7 == 1]
    graph = InteractionGraph(frozenset(users), edges, groups=[{"u010", "u020", "u080"}])
    expected = oracles.adjacency_from_social(SocialInteraction(u, v, "love") for u, v in edges)
    for member in ("u010", "u020", "u080"):
        expected[member] |= {"u010", "u020", "u080"} - {member}
    assert graph.users == users
    assert graph.rows.dtype == np.uint8 and graph.rows.shape == (100, 16)
    bits = np.unpackbits(graph.rows, axis=1, bitorder="little")
    for j, user in enumerate(users):
        assert {users[i] for i in np.flatnonzero(bits[j])} == expected.get(user, set())
        assert not bits[j, j]
        assert graph.neighbors(user) == expected.get(user, set())
        assert graph.degree(user) == len(expected.get(user, ()))
    assert not bits[:, len(users):].any()  # padding to whole 64-bit words


def test_one_large_event_builds_in_bounded_memory():
    """2,000 attendees among 3,000 users: about 2 M pairs, built from one packed row per user."""
    users = [f"u{i:04d}" for i in range(3000)]
    rows = [(user, "l1", "monitored", "e1") for user in users[:2000]]
    corpus = make_corpus(locations=rows, extra_users=users)
    tracemalloc.start()
    try:
        graph = build_colocation_graph(corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert graph.degree(users[0]) == graph.degree(users[1999]) == 1999
    assert graph.degree(users[2000]) == 0
    assert graph.neighbors(users[1999]) == frozenset(users[:1999])


def test_light_lists_build_in_slices(monkeypatch):
    """3,000 users in ten events of 300: every row is light (299 · 8 < 3,000), and the lists, 3.4 MB, are built from
    slices of rows rather than from one U × U unpack of 8.6 MB."""
    monkeypatch.setattr(graphs, "CHUNK_BYTES", 1 << 16)
    users = [f"u{i:04d}" for i in range(3000)]
    groups = [set(users[start : start + 300]) for start in range(0, 3000, 300)]
    tracemalloc.start()
    try:
        graph = InteractionGraph(frozenset(users), groups=groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.light.all() and len(graph.list_positions) == 3000 * 299
    assert peak < graph.rows.nbytes + graph.list_positions.nbytes + 2**20
    assert graph.neighbor_positions(299).tolist() == list(range(299))
    assert graph.neighbor_positions(2999).tolist() == list(range(2700, 2999))


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        InteractionGraph(frozenset({"a"}), [("a", "a")])
    with pytest.raises(ValueError, match="self-loop on 'b'"):
        InteractionGraph(frozenset({"a", "b"}), iter([("a", "b"), ("b", "b")]))


_users = st.integers(min_value=0, max_value=12).map(lambda i: f"u{i}")
_interactions = st.lists(
    st.tuples(_users, _users, st.sampled_from(["love", "comment", "wallpost"])).filter(
        lambda row: row[0] != row[1]
    ),
    max_size=60,
)


@given(_interactions)
def test_symmetry_on_random_graphs(rows):
    graph = build_social_graph(make_corpus(social=rows))
    for user in graph.vertices:
        for other in graph.neighbors(user):
            assert user in graph.neighbors(other)
            assert other != user


@given(_interactions)
def test_social_edges_are_interacting_pairs(rows):
    corpus = make_corpus(social=rows)
    graph = build_social_graph(corpus)
    edges = {(u, v) for u in graph.vertices for v in graph.neighbors(u) if u < v}
    assert edges == set(oracles.social_pair_counts(corpus.social))
    assert sum(graph.degree(u) for u in graph.vertices) == 2 * len(edges)


def test_colocation_matches_bruteforce_oracle(small_corpus):
    assert len(small_corpus.users) <= 100
    graph = build_colocation_graph(small_corpus)
    expected = oracles.adjacency_from_colocation(small_corpus.locations)
    assert expected  # the fixture has co-attendance, so the comparison is not vacuous
    assert adjacency(graph) == dict(expected)


def test_social_graph_matches_pair_counts(small_corpus):
    graph = build_social_graph(small_corpus)
    expected = oracles.adjacency_from_social(small_corpus.social)
    assert expected
    assert adjacency(graph) == dict(expected)


def shared_by_brute_force(graph, i):
    """Positions two hops from users[i] and their shared neighbour counts, from neighbors() set intersections."""
    own = graph.neighbors(graph.users[i])
    shared = [(j, len(own & graph.neighbors(user))) for j, user in enumerate(graph.users) if j != i]
    return [j for j, c in shared if c], [c for _, c in shared if c]


def assert_shared_counts(graph, i):
    positions, counts = graph.shared_counts(i)
    assert positions.dtype == counts.dtype == np.int64
    assert (positions.tolist(), counts.tolist()) == shared_by_brute_force(graph, i)


# case -> (users, edges among positions). Target 0's neighbours are 1 and 2, so its degree · 8 ≥ U and its row
# is heavy; the names tell the cases apart by how many users its neighbours reach.
_PATH_CASES = {
    "neighbour of degree ceil(U/2)": (12, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (3, 4)]),
    "reach 7 of 12, degrees below 6": (
        12, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 8), (2, 3), (2, 5), (2, 6), (2, 7)]),
    "reach 4 of 12": (12, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4)]),
    "reach exactly 6 of 12": (12, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7)]),
    "reach 5 of 12": (12, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
    "reach exactly 7 of 13": (13, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8), (9, 10)]),
    "reach 6 of 13": (13, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (9, 10), (9, 11)]),
}


@pytest.mark.parametrize("case", _PATH_CASES)
def test_shared_counts_paths_match_set_intersections(monkeypatch, case):
    """A heavy target ANDs its row with every row in one pass over all users, read one or all rows at a time."""
    size, edges = _PATH_CASES[case]
    users = [f"u{i:02d}" for i in range(size)]
    graph = InteractionGraph(frozenset(users), [(users[a], users[b]) for a, b in edges])
    sliced, read = [], []  # the row counts handed to graphs.row_slices, and the rows in each slice it gave

    def record(count, width):
        sliced.append(count)
        parts = list(row_slices(count, width))
        read.extend(len(range(count)[part]) for part in parts)
        return iter(parts)

    monkeypatch.setattr(graphs, "row_slices", record)
    for chunk, rows_per_slice in [(8, 1), (graphs.CHUNK_BYTES, size)]:  # a row of U ≤ 64 bits is 8 bytes
        monkeypatch.setattr(graphs, "CHUNK_BYTES", chunk)
        sliced.clear()
        read.clear()
        assert_shared_counts(graph, 0)
        assert sliced == [size]
        assert read == [rows_per_slice] * (size // rows_per_slice)


def oracle_adjacency(edges, groups):
    """Neighbour sets from the edge pairs and every two members of each group, as oracles.network_score reads them."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for group in groups:
        for member in group:
            adj.setdefault(member, set()).update(group - {member})
    return adj


def oracle_aa(adj, users, i):
    """(position, score) of every other user with a nonzero oracle aa score against users[i], ascending."""
    scores = [(j, oracles.network_score(adj, users[i], other, "aa")) for j, other in enumerate(users) if j != i]
    return [(j, score) for j, score in scores if score]


def aa_pairs(graph, i):
    positions, sums = graph.adamic_adar(i)
    return list(zip(positions.tolist(), sums.tolist()))


def kernel_path(graph, kernel, i):
    """Call ``kernel(i)``; 'packed rows' if it took slices of packed rows (graphs.row_slices), else 'lists'."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "row_slices", lambda *args: calls.append(args) or row_slices(*args))
        kernel(i)
    return "packed rows" if calls else "lists"


@pytest.mark.parametrize("chunk", [8, 16, 1 << 20])
def test_shared_counts_match_set_intersections_on_random_graphs(chunk):
    """Every target of random edge and group graphs with heavy and light rows, read one, two or all rows at a time:
    the two-hop counts, the aa sums and the neighbour positions equal the oracles', on both paths."""
    paths = set()

    @given(st.data())
    def check(data):
        size = data.draw(st.integers(1, 40))
        users = [f"u{i:02d}" for i in range(size)]
        user = st.sampled_from(users)
        edges = data.draw(st.lists(st.tuples(user, user).filter(lambda e: e[0] != e[1]), max_size=40))
        groups = data.draw(st.lists(st.sets(user, max_size=size), max_size=3))
        graph = InteractionGraph(frozenset(users), edges, groups)
        adj = oracle_adjacency(edges, groups)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "CHUNK_BYTES", chunk)
            for i, target in enumerate(users):
                assert_shared_counts(graph, i)
                assert graph.neighbor_positions(i).tolist() == [users.index(v) for v in sorted(adj.get(target, ()))]
                assert aa_pairs(graph, i) == oracle_aa(adj, users, i)
                path = kernel_path(graph, graph.adamic_adar, i)
                assert kernel_path(graph, graph.shared_counts, i) == path
                if adj.get(target):  # an isolated target reads an empty list, which shows little
                    paths.add(path)

    check()
    assert paths == {"lists", "packed rows"}


# U = 24: u00 has degree 3 (3 · 8 = U, heavy), u04 and u05 degree 2 (light), u01, u06 and u07 degree 1 (light)
_BOUNDARY_USERS = [f"u{i:02d}" for i in range(24)]
_BOUNDARY_EDGES = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 7)]


@pytest.fixture
def boundary_graph():
    users = _BOUNDARY_USERS
    return InteractionGraph(frozenset(users), [(users[a], users[b]) for a, b in _BOUNDARY_EDGES])


def test_heavy_from_degree_times_8_equal_to_u(boundary_graph):
    """A row of degree · 8 == U is heavy, one just below is light; a light target with a heavy neighbour reads packed
    rows, one whose neighbours are all light reads lists, and every kernel equals the oracles on both."""
    graph, users = boundary_graph, _BOUNDARY_USERS
    assert graph.light.tolist() == [False] + [True] * 23
    assert graph.list_starts.tolist()[:9] == [0, 0, 1, 2, 3, 5, 7, 8, 9]
    adj = oracle_adjacency([(users[a], users[b]) for a, b in _BOUNDARY_EDGES], [])
    paths = {}
    for i, target in enumerate(users):
        assert graph.neighbor_positions(i).tolist() == [users.index(v) for v in sorted(adj.get(target, ()))]
        assert_shared_counts(graph, i)
        assert aa_pairs(graph, i) == oracle_aa(adj, users, i)
        paths[i] = kernel_path(graph, graph.adamic_adar, i)
        assert kernel_path(graph, graph.shared_counts, i) == paths[i]
    assert [paths[i] for i in (0, 1, 4, 5, 7, 8)] == ["packed rows"] * 2 + ["lists"] * 4


@pytest.mark.parametrize("i", [0, 4], ids=["heavy", "light"])
def test_kernel_output_dtypes(boundary_graph, i):
    """int64 positions on both paths: an int32 list would make pair_counts' keys i · U + near int32 arithmetic."""
    graph = boundary_graph
    assert graph.neighbor_positions(i).dtype == np.int64
    assert [a.dtype for a in graph.shared_counts(i)] == [np.int64, np.int64]
    assert [a.dtype for a in graph.adamic_adar(i)] == [np.int64, np.float64]
    assert [a.dtype for a in graph.pair_counts(i)] == [np.int64, np.int64]
