"""The nine user-user similarity features and k-nearest-neighbour selection.

Content features compare per-user entity sets (common, total, Jaccard) for any
entity kind. Network features read an interaction graph: directed interaction
frequency, common neighbours, neighbour Jaccard, Adamic/Adar, neighbourhood
overlap, and preferential attachment.

Features are addressed by dotted identifiers, e.g. ``mp.purchases.jaccard``
(marketplace purchases, Jaccard over entity sets) or ``sn.graph.no`` (social
interaction graph, neighbourhood overlap). See ALL_FEATURE_IDS.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence, TypeVar

import numpy as np

from .corpus import Corpus, entity_sets
from .graphs import InteractionGraph, build_colocation_graph, build_social_graph, nonzero_except

DEFAULT_K = 40
CF_BLOCK_CELLS = 1 << 15  # what a kept CF block may hold: its sums and gathered entities, 256 KB of sums at most
_Key = TypeVar("_Key", str, int)

_CONTENT_SUFFIXES = ("common", "total", "jaccard")
# the directed feature only exists on the social graph: co-attendance has no direction
_NETWORK_SUFFIXES = ("directed", "cn", "jaccard", "aa", "no", "pa")
# (prefix, selector) -> entity kind
_CONTENT_SELECTORS = {
    ("mp", "purchases"): "purchases",
    ("mp", "sellers"): "sellers",
    ("mp", "categories"): "categories",
    ("sn", "groups"): "groups",
    ("sn", "interests"): "interests",
    ("loc", "favored"): "favored_locations",
    ("loc", "shared"): "shared_locations",
    ("loc", "monitored"): "monitored_locations",
}
_GRAPH_SELECTORS = {"sn": "social", "loc": "colocation"}  # prefix -> graph name


class UnknownFeatureError(ValueError):
    """A feature identifier does not name any known similarity feature."""


class UnknownUserError(KeyError):
    """A target user id is not part of the corpus user universe."""


@dataclass(frozen=True)
class FeatureSpec:
    """Resolved form of a feature identifier."""

    feature: str  # the id's suffix: common | total | jaccard | directed | cn | aa | no | pa
    entity_kind: Optional[str] = None  # content features only
    graph: Optional[str] = None  # network features only: social | colocation


def _enumerate_features():
    table = {}
    for (prefix, selector), kind in _CONTENT_SELECTORS.items():
        for suffix in _CONTENT_SUFFIXES:
            table[f"{prefix}.{selector}.{suffix}"] = FeatureSpec(suffix, entity_kind=kind)
    for prefix, graph in _GRAPH_SELECTORS.items():
        for suffix in _NETWORK_SUFFIXES:
            if suffix != "directed" or graph == "social":
                table[f"{prefix}.graph.{suffix}"] = FeatureSpec(suffix, graph=graph)
    return table


_SPEC_BY_ID = _enumerate_features()
ALL_FEATURE_IDS = tuple(_SPEC_BY_ID)


def parse_feature_id(feature_id: str) -> FeatureSpec:
    try:
        return _SPEC_BY_ID[feature_id]
    except KeyError:
        raise UnknownFeatureError(f"unknown feature id: {feature_id!r}") from None


@dataclass(frozen=True, eq=False)
class SimilarityMatrixSlice:
    """Scored candidate neighbours for one target user, best first.

    Int32 ``positions`` index ``universe``, the building context's sorted user ids; float64 ``scores``
    are positive, descending, ties by ascending id. ``scored``, ``users()`` and ``len()`` read them by id.
    """

    target: str
    universe: Sequence[str]
    positions: np.ndarray
    scores: np.ndarray

    @classmethod
    def from_pairs(cls, target: str, scored, users: Sequence[str]) -> SimilarityMatrixSlice:
        """The slice of ``(user id, score)`` pairs in that order over ``users``, sorted ids holding every id given."""
        at = {user: i for i, user in enumerate(users)}
        positions = np.array([at[user] for user in (target, *(user for user, _ in scored))], np.int32)
        return cls(target, users, positions[1:], np.array([score for _, score in scored], float))

    @cached_property
    def scored(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(map(self.universe.__getitem__, self.positions.tolist()), self.scores.tolist()))

    def __len__(self) -> int:
        return len(self.positions)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimilarityMatrixSlice) and (self.target, self.scored) == (other.target, other.scored)

    def users(self) -> tuple[str, ...]:
        return tuple(user for user, _ in self.scored)


def check_length(n: Optional[int]) -> None:
    """Reject a negative list length, which would otherwise slice from the end."""
    if n is not None and n < 0:
        raise ValueError(f"n must be >= 0 or None, got {n}")


def top_n(scores: Mapping[_Key, float], n: Optional[int]) -> list[tuple[_Key, float]]:
    """The ``n`` best (key, score) pairs by descending score, ties by ascending key; all if None.

    Only entries at or above the n-th best score (a sort of bare floats) are sorted as tuples.
    """
    check_length(n)
    cut = sorted(scores.values(), reverse=True)[n - 1] if n and n <= len(scores) else -math.inf
    entries = sorted([(-s, key) for key, s in scores.items() if s >= cut])
    return [(key, -s) for s, key in entries[:n]]


def best_first(positions: np.ndarray, scores: np.ndarray, n: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` best ascending ``positions`` by descending score, ties by position; all if None."""
    check_length(n)
    if n and len(scores) > n:
        # scores tied with the n-th best survive; positions ascend, so the stable sort breaks ties by position
        keep = (scores >= np.partition(scores, -n)[-n]).nonzero()[0]
        positions, scores = positions[keep], scores[keep]
    order = (-scores).argsort(kind="stable")[:n]
    return positions[order], scores[order]


class EntitySets(dict):
    """User -> entity set, as corpus.entity_sets maps them, over sorted ids ``users``; the sets must not change.

    The sets are the one home of their index: ``ids``, the sorted entity ids, so entity position i names ids[i];
    ``csr``, CSR ``indptr`` and int32 ``indices`` of users[i]'s entity positions in set order; and ``degrees``,
    each user's entity count. Content k-NN reads ``degrees`` and ``shared_counts`` as it reads a graph's, and CF
    reads ``cf_sums`` (rows of a block that ``keep_cf_sums`` keeps), ``codes`` and ``ids``.
    """

    def __init__(self, sets: Mapping[str, frozenset[str]], users: Sequence[str]):
        super().__init__(sets)
        self.users = users
        held = [self.get(user, ()) for user in users]
        self.ids = sorted(set().union(*held))
        at = {entity: i for i, entity in enumerate(self.ids)}.__getitem__
        indptr = np.cumsum([0, *map(len, held)])
        self.csr = indptr, np.fromiter(map(at, chain.from_iterable(held)), np.int32, indptr[-1])
        self.degrees = np.diff(indptr)
        self._codes: dict = {}  # extractor -> (product table, sorted category ids, each entity's code)
        self._rows: dict[int, int] = {}  # id of a slice in _kept, which keeps it unique -> its row of the CF _block

    @cached_property
    def holders(self) -> dict[str, np.ndarray]:
        """The transpose of ``csr``: entity id -> ascending int32 positions of its holders in ``users``."""
        indices, u = self.csr[1], len(self.users)
        held = np.sort(indices.astype(np.int64) * u + np.repeat(np.arange(u), self.degrees)) % u  # entity-major
        ends = np.bincount(indices, minlength=len(self.ids)).cumsum()
        return dict(zip(self.ids, np.split(held.astype(np.int32), ends[:-1])))

    def shared_counts(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the users sharing an entity with ``users[t]``, ascending, and how many they share:
        one ``np.bincount`` of the holders of the target's entities."""
        held = list(map(self.holders.__getitem__, self.get(self.users[t], ())))
        return nonzero_except(np.bincount(np.concatenate(held) if held else held, minlength=len(self.users)), t)

    def cf_sums(self, slice_: SimilarityMatrixSlice) -> np.ndarray:
        """Each entity position's CF sum, the target's entities at 0: its row of the kept block, or else kept alone."""
        if id(slice_) in self._rows:
            return self._block[self._rows[id(slice_)]]
        indptr, indices = self.csr
        starts, ends = indptr[slice_.positions], indptr[slice_.positions + 1]
        lens = ends - starts
        flat = indices[np.repeat(ends - lens.cumsum(), lens) + np.arange(lens.sum())]
        sums = np.bincount(flat, slice_.scores.repeat(lens), len(self.ids))
        t = bisect_left(self.users, slice_.target)
        sums[indices[indptr[t] : indptr[t + 1]]] = 0.0
        self._block, self._kept, self._rows = (sums,), (slice_,), {id(slice_): 0}  # a block of one row
        return sums

    def keep_cf_sums(self, slices: Sequence[SimilarityMatrixSlice]) -> int:
        """Keep the CF sums of the longest prefix of ``slices`` within CF_BLOCK_CELLS (P cells a row, one per entity it
        gathers), one slice at least, as one block; return its length. It reads CF_BLOCK_CELLS // P slices at most.
        One gather, then one ``np.bincount`` keyed by row·P + position adds each row in slice order, bit-identical to
        cf_sums of the slice alone."""
        slices = slices[: max(1, CF_BLOCK_CELLS // max(len(self.ids), 1))]  # a row takes P cells at least
        width, rows = len(self.ids), len(slices)
        row_of = np.repeat(np.arange(rows), [len(s) for s in slices])  # each neighbour's row
        positions = np.concatenate([s.positions for s in slices])
        cells = np.bincount(row_of, self.degrees[positions], rows).cumsum() + width * np.arange(1, rows + 1)
        rows = max(1, np.count_nonzero(cells <= CF_BLOCK_CELLS))
        row_of = row_of[: np.searchsorted(row_of, rows)]
        flat, lens = self._held(positions[: len(row_of)])
        weights = np.concatenate([s.scores for s in slices[:rows]]).repeat(lens)
        block = np.bincount(flat + np.repeat(row_of * width, lens), weights, rows * width).reshape(rows, width)
        self._block, self._kept, self._rows = block, slices[:rows], dict(zip(map(id, slices), range(rows)))
        own, lens = self._held([bisect_left(self.users, slice_.target) for slice_ in self._kept])
        block[np.repeat(np.arange(rows), lens), own] = 0.0  # each target's own entities, one scatter
        return rows

    def _held(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """The entity positions that each of users[positions] holds, in set order, concatenated; and their counts."""
        (indptr, indices), lens = self.csr, self.degrees[positions]
        return indices[np.repeat(indptr[positions] + lens - lens.cumsum(), lens) + np.arange(lens.sum())], lens

    def codes(self, extract: Callable, products: Mapping) -> tuple[list[str], np.ndarray]:
        """The sorted ids of the categories that ``extract`` finds for the entities in ``products``, and each entity's
        code, len(categories) for none; kept per extractor while ``products`` is the same table."""
        if self._codes.get(extract, (None,))[0] is not products:
            found = list(map(extract, map(products.__getitem__, self.ids)))
            categories = sorted(set(found) - {None})
            at = {category: i for i, category in enumerate(categories)}
            self._codes[extract] = (products, categories, np.array([at.get(c, len(at)) for c in found], int))
        return self._codes[extract][1:]


class SimilarityContext:
    """Lazily built indexes over one corpus for fast feature evaluation.

    Everything is derived from an immutable corpus, so a context is safe for
    concurrent reads once built. Graphs and indexes are built on first use.
    Content indexes, graph rows and slices hold positions in ``users``, the
    corpus users sorted by id: each graph's vertices are the corpus users, so
    ``graph`` raises ValueError for an edge or event that links anyone else.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.users = sorted(corpus.users)
        self._graphs: dict[str, InteractionGraph] = {}
        self._entity_sets: dict[str, EntitySets] = {}

    def graph(self, name: str) -> InteractionGraph:
        if name not in self._graphs:
            build = {"social": build_social_graph, "colocation": build_colocation_graph}.get(name)
            if build is None:
                raise ValueError(f"unknown graph: {name!r}")
            self._graphs[name] = build(self.corpus)
        return self._graphs[name]

    def entity_sets(self, kind: str) -> EntitySets:
        if kind not in self._entity_sets:
            self._entity_sets[kind] = EntitySets(entity_sets(self.corpus, kind), self.users)
        return self._entity_sets[kind]

    def k_nearest(self, feature: str, target: str, k: int = DEFAULT_K) -> SimilarityMatrixSlice:
        """Top-k candidates by positive similarity to ``target`` under one feature id.

        Raises UnknownUserError for users outside the corpus universe; users
        that exist but have no data for the feature get an empty slice.
        """
        spec = parse_feature_id(feature)
        if target not in self.corpus.users:
            raise UnknownUserError(target)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        positions, scores = best_first(*self._scores(spec, bisect_left(self.users, target)), k)
        return SimilarityMatrixSlice(target, self.users, positions.astype(np.int32), scores)

    def _scores(self, spec: FeatureSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending positions in ``users`` of the users scoring above 0 against ``users[t]``, and their scores.

        Every family reads one source, a graph or the entity sets, through its ``degrees`` and one kernel.
        Each score is bit-identical to the definition in tests/oracles.py. ``directed`` is the larger of the
        two one-directional counts, so that it yields a neighbourhood like every other feature.
        """
        source = self.entity_sets(spec.entity_kind) if spec.graph is None else self.graph(spec.graph)
        size = source.degrees
        n = int(size[t])
        if not n:
            return np.empty(0, np.intp), np.empty(0)
        if spec.feature == "pa":
            v = np.flatnonzero(size)
            v = v[v != t]
            return v, (n * size[v]).astype(float)
        if spec.feature == "aa":
            return source.adamic_adar(t)
        # each c >= 1: users two hops away share a neighbour or an entity, and every neighbour interacted
        v, c = source.pair_counts(t) if spec.feature == "directed" else source.shared_counts(t)
        if spec.feature == "total":  # every other user scores n + its size, less what it shares: at least n
            totals = n + size
            totals[v] -= c
            totals[t] = 0
            v = np.flatnonzero(totals)
            return v, totals[v].astype(float)
        if spec.feature == "jaccard":
            return v, c / (n + size[v] - c)
        if spec.feature == "no":
            return v, c / (n + size[v])
        return v, c.astype(float)  # common, cn and directed
