"""Undirected, unweighted user graphs built from social interactions and co-attendance."""

from __future__ import annotations

import re
from collections import defaultdict
from functools import cached_property
from itertools import chain
from typing import Iterable

from .corpus import Corpus

_ONE = re.compile("1")


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    return [match.start() for match in _ONE.finditer(bin(mask)[:1:-1])]


class InteractionGraph:
    """Undirected user graph held as one neighbour bitmask per user.

    Each pair in ``edges`` and every two members of each set in ``groups``
    share an edge: at least one shared action, whose count no feature reads.
    Bit i of ``masks[j]`` links ``users[i]`` and ``users[j]``. ``users`` is
    sorted by id, so ascending set bits are neighbours in ascending id order.
    """

    def __init__(self, vertices: frozenset[str], edges: Iterable[tuple[str, str]] = (),
                 groups: Iterable[set[str]] = ()):
        edges, groups = list(edges), list(groups)
        self.vertices = vertices
        self.users = sorted(vertices.union(chain.from_iterable(edges), *groups))
        self.index = index = {user: i for i, user in enumerate(self.users)}
        self.masks = masks = [0] * len(self.users)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            masks[index[u]] |= 1 << index[v]
            masks[index[v]] |= 1 << index[u]
        for group in groups:
            positions = {index[user] for user in group}
            clique = sum(1 << i for i in positions)
            for i in positions:
                masks[i] |= clique ^ (1 << i)
        self.degrees = [mask.bit_count() for mask in masks]

    def neighbors(self, user: str) -> frozenset[str]:
        """All users sharing an edge with ``user``; empty for isolated or unknown users."""
        bits = set_bits(self.masks[self.index[user]]) if user in self.index else ()
        return frozenset(map(self.users.__getitem__, bits))

    def degree(self, user: str) -> int:
        return self.degrees[self.index[user]] if user in self.index else 0

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

    Only monitored location records participate: all attendees of one event
    key are linked, by one group per event that is never expanded into pairs.
    """
    attendees: dict[str, set[str]] = defaultdict(set)
    for record in corpus.locations:
        if record.kind == "monitored":
            attendees[record.event_key].add(record.user)
    return InteractionGraph(corpus.users, groups=attendees.values())
