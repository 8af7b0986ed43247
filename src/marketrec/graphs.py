"""Undirected, unweighted user graphs from social interactions and co-attendance, and the network feature kernels."""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .corpus import Corpus

# the most bytes a temporary over a slice of a graph's rows may take
CHUNK_BYTES = 1 << 20


def row_slices(count: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)`` whose rows of ``width`` bytes fill at most CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // max(width, 1))  # a graph of no users has rows of no bytes
    return (slice(start, start + step) for start in range(0, count, step))


def row_counts(words: np.ndarray) -> np.ndarray:
    """The int64 bit count of each row of 2-D uint64 ``words``; einsum reduces rows faster than sum()."""
    return np.einsum("ij->i", np.bitwise_count(words), dtype=np.int64)


class InteractionGraph:
    """Undirected user graph held as one packed neighbour row per user, and a neighbour list per light user.

    ``users`` is ``vertices`` sorted by id. Each pair in ``edges`` and every two members of each set in ``groups``
    share an edge; a ValueError names an endpoint or member that is not a vertex. ``pairs`` counts each ordered pair
    in ``edges``, for ``pair_counts`` (``directed``): sorted int64 keys actor · U + target over positions in
    ``users``, their counts, and a last key U² that no pair has, so every search lands inside the array. ``rows`` is
    a uint8 matrix with one row per entry of ``users``, packed little-endian: bit i of row j (bit i % 8 of byte
    i // 8) links ``users[i]`` and ``users[j]``, and zero bits pad each row to whole 64-bit words for uint64 reads.
    A row is heavy at degree · 8 ≥ U, where an int32 list takes four times its packed bytes or more; ``light`` flags
    the others. Light row i's neighbours are ``list_positions[list_starts[i]:list_starts[i + 1]]``, ascending int32,
    at most four times ``rows``' bytes in all. ``aa_weights`` is math.log's 1 / ln deg per user, 0.0 at degree ≤ 1.
    """

    def __init__(self, vertices: frozenset[str], edges: Iterable[tuple[str, str]] = (),
                 groups: Iterable[set[str]] = ()):
        self.vertices = vertices
        self.users = sorted(vertices)
        self.index = index = {user: i for i, user in enumerate(self.users)}
        try:
            ends = np.fromiter(map(index.__getitem__, chain.from_iterable(edges)), np.intp).reshape(-1, 2)
            cliques = [np.fromiter(map(index.__getitem__, group), np.intp, len(group)) for group in groups]
        except KeyError as missing:
            raise ValueError(f"{missing.args[0]!r} is linked but is not a vertex") from None
        u = len(self.users)
        width = -(-u // 64) * 8
        self.rows = rows = np.zeros((u, width), np.uint8)
        if (loops := ends[ends[:, 0] == ends[:, 1], 0]).size:
            raise ValueError(f"self-loop on {self.users[loops[0]]!r}")
        self.pairs = np.unique(np.append(ends[:, 0] * u + ends[:, 1], u * u), return_counts=True)
        ends, others = np.concatenate([ends, ends[:, ::-1]]).T  # each edge in both directions
        np.bitwise_or.at(rows, (ends, others >> 3), (1 << (others & 7)).astype(np.uint8))
        for members in cliques:
            clique = np.zeros(width * 8, bool)
            clique[members] = True
            clique = np.packbits(clique, bitorder="little")
            for part in row_slices(len(members), width):
                rows[members[part]] |= clique
        diagonal = np.arange(len(rows))  # a group sets each member's own bit: clear the diagonal
        rows[diagonal, diagonal >> 3] &= ~(1 << (diagonal & 7)).astype(np.uint8)
        self.degrees = row_counts(rows.view(np.uint64))
        self.aa_weights = np.array([1.0 / math.log(d) if d > 1 else 0.0 for d in self.degrees.tolist()])
        self.light = self.degrees * 8 < u
        self.list_starts = np.append(0, (self.degrees * self.light).cumsum())
        self.list_positions = np.empty(self.list_starts[-1], np.int32)
        for part in row_slices(u, 8 * max(u, 1)):  # an int64 temporary takes under U bytes a light row
            block = rows[part][self.light[part]].ravel()
            found = block.nonzero()[0]
            bits = np.unpackbits(block[found], bitorder="little").nonzero()[0]
            at = self.list_starts[part.start]
            self.list_positions[at : at + len(bits)] = found[bits >> 3] % width * 8 + (bits & 7)

    def neighbor_positions(self, i: int) -> np.ndarray:
        """Positions in ``users`` of the neighbours of ``users[i]``, ascending int64: a light row's list, cast."""
        if self.light[i]:
            return self.list_positions[self.list_starts[i] : self.list_starts[i + 1]].astype(np.intp)
        return np.flatnonzero(np.unpackbits(self.rows[i], count=len(self.users), bitorder="little"))

    def _light_lists(self, i: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The int32 neighbours z of ``users[i]`` and their lists end to end, z ascending; None if a row is heavy."""
        near = self.list_positions[self.list_starts[i] : self.list_starts[i + 1]]
        if self.light[i] and self.light[near].all():
            ends, lens = self.list_starts[near + 1], self.degrees[near]
            return near, self.list_positions[np.repeat(ends - lens.cumsum(), lens) + np.arange(lens.sum())]
        return None

    def shared_counts(self, i: int) -> np.ndarray:
        """How many neighbours each user shares with ``users[i]``, int64 by position, entry i its degree.

        If ``users[i]`` and its neighbours are light, one ``np.bincount`` of their lists counts. Else each count is
        the bit count of the AND of ``users[i]``'s row with every row, read CHUNK_BYTES of rows at a time.
        """
        if (light := self._light_lists(i)) is not None:
            return np.bincount(light[1], minlength=len(self.users))
        words = self.rows.view(np.uint64)
        return np.concatenate([row_counts(words[part] & words[i]) for part in row_slices(len(words), words[i].nbytes)])

    def pair_counts(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the neighbours of ``users[i]``, ascending, and for each the larger count in ``edges`` of
        the two ordered pairs it forms with ``users[i]``: one ``np.searchsorted`` of both directions' keys."""
        (keys, counts), near, u = self.pairs, self.neighbor_positions(i), len(self.users)
        query = np.concatenate([i * u + near, near * u + i])
        at = np.searchsorted(keys, query)
        return near, np.where(keys[at] == query, counts[at], 0).reshape(2, -1).max(axis=0)

    def adamic_adar(self, i: int) -> np.ndarray:
        """Each user's sum of 1 / ln deg(z) over the neighbours z it shares with ``users[i]``, float64 by position.

        z ascending adds each pair's terms in the oracle's order: ``np.bincount`` adds light lists in input order,
        packed rows add one += per block row (np.add.reduce would leave the order to numpy), and adding 0.0 leaves a
        non-member's sum as it was. Builtin sum() compensates float sums from Python 3.12. Skipped: z of degree 1.
        """
        if (light := self._light_lists(i)) is not None:
            weights = self.aa_weights[light[0]].repeat(self.degrees[light[0]])  # z's weight for each entry of z's list
            return np.bincount(light[1], weights, len(self.users)).astype(float, copy=False)  # int64 when empty
        near, sums = self.neighbor_positions(i), np.zeros(len(self.users))
        near = near[self.degrees[near] > 1]
        for part in row_slices(len(near), sums.nbytes):  # blocks of unpacked float64 rows
            block = np.unpackbits(self.rows[near[part]], axis=1, count=len(sums), bitorder="little").astype(float)
            block *= self.aa_weights[near[part], None]  # float64 by float64 in place: faster than uint8 by float64
            for row in block:
                sums += row
        return sums

    def neighbors(self, user: str) -> frozenset[str]:
        """All users sharing an edge with ``user``; empty for isolated or unknown users."""
        if user not in self.index:
            return frozenset()
        return frozenset(map(self.users.__getitem__, self.neighbor_positions(self.index[user]).tolist()))

    def degree(self, user: str) -> int:
        return int(self.degrees[self.index[user]]) if user in self.index else 0


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
