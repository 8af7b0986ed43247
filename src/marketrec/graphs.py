"""Undirected weighted user graphs built from social interactions and co-attendance."""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import combinations
from typing import Iterator, Mapping

from .corpus import Corpus

_EMPTY: frozenset[str] = frozenset()


class InteractionGraph:
    """Undirected user graph with positive integer edge weights.

    Edges carry the frequency of the underlying action between two users.
    There are no self-loops, and adjacency is symmetric by construction.
    """

    def __init__(self, vertices: frozenset[str], edge_weights: Mapping[tuple[str, str], int]):
        adjacency: dict[str, set[str]] = defaultdict(set)
        for (u, v), weight in edge_weights.items():
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if weight < 1:
                raise ValueError(f"edge ({u!r}, {v!r}) has non-positive weight {weight}")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.vertices = vertices
        self._weights = {_edge_key(u, v): w for (u, v), w in edge_weights.items()}
        self._adjacency = {user: frozenset(nbrs) for user, nbrs in adjacency.items()}

    def neighbors(self, user: str) -> frozenset[str]:
        """All users sharing an edge with ``user``; empty for isolated or unknown users."""
        return self._adjacency.get(user, _EMPTY)

    def degree(self, user: str) -> int:
        return len(self._adjacency.get(user, _EMPTY))

    @cached_property
    def by_degree(self) -> list[tuple[str, int]]:
        """Non-isolated vertices with their degree, highest degree first, ties by id."""
        ranked = sorted((-self.degree(u), u) for u in self.vertices)
        return [(u, -d) for d, u in ranked if d]

    def weight(self, u: str, v: str) -> int:
        """Edge weight between two users, 0 if no edge exists."""
        return self._weights.get(_edge_key(u, v), 0)

    def edges(self) -> Iterator[tuple[str, str, int]]:
        for (u, v), weight in self._weights.items():
            yield u, v, weight

    @property
    def edge_count(self) -> int:
        return len(self._weights)


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def neighbors(graph: InteractionGraph, user: str) -> frozenset[str]:
    return graph.neighbors(user)


def build_social_graph(corpus: Corpus) -> InteractionGraph:
    """Graph over all corpus users where edge weight counts interactions.

    An edge (u, v) exists iff at least one social interaction connects u and v
    in either direction; its weight is the total count over both directions
    and all interaction kinds.
    """
    weights: dict[tuple[str, str], int] = defaultdict(int)
    for interaction in corpus.social:
        weights[_edge_key(interaction.actor, interaction.target)] += 1
    return InteractionGraph(corpus.users, weights)


def build_colocation_graph(corpus: Corpus) -> InteractionGraph:
    """Graph over all corpus users linking attendees of the same event.

    Only monitored location records participate: for every distinct event key,
    each unordered pair of distinct attendees gains +1 edge weight. Duplicate
    attendance records of one user at one event count once.
    """
    attendees: dict[str, set[str]] = defaultdict(set)
    for record in corpus.locations:
        if record.kind == "monitored":
            attendees[record.event_key].add(record.user)
    weights: dict[tuple[str, str], int] = defaultdict(int)
    for event_users in attendees.values():
        for u, v in combinations(sorted(event_users), 2):
            weights[(u, v)] += 1
    return InteractionGraph(corpus.users, weights)
