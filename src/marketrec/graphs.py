"""Undirected, unweighted user graphs built from social interactions and co-attendance."""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable

from .corpus import Corpus

_EMPTY: frozenset[str] = frozenset()


class InteractionGraph:
    """Undirected user graph held as adjacency sets.

    An edge links two users who share at least one underlying action; how
    often they do is not kept, because no similarity feature reads it.
    There are no self-loops, and adjacency is symmetric by construction.
    """

    def __init__(self, vertices: frozenset[str], edges: Iterable[tuple[str, str]]):
        adjacency: dict[str, set[str]] = defaultdict(set)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.vertices = vertices
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


def build_social_graph(corpus: Corpus) -> InteractionGraph:
    """Graph over all corpus users linking users who interacted.

    An edge (u, v) exists iff at least one social interaction connects u and v
    in either direction, of any interaction kind.
    """
    return InteractionGraph(corpus.users, ((s.actor, s.target) for s in corpus.social))


def build_colocation_graph(corpus: Corpus) -> InteractionGraph:
    """Graph over all corpus users linking attendees of the same event.

    Only monitored location records participate: every unordered pair of
    distinct attendees of one event key is an edge.
    """
    attendees: dict[str, set[str]] = defaultdict(set)
    for record in corpus.locations:
        if record.kind == "monitored":
            attendees[record.event_key].add(record.user)
    pairs = chain.from_iterable(combinations(users, 2) for users in attendees.values())
    return InteractionGraph(corpus.users, pairs)
