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
from typing import Mapping, Optional, Sequence, TypeVar

import numpy as np

from .corpus import Corpus, entity_sets
from .graphs import InteractionGraph, build_colocation_graph, build_social_graph

DEFAULT_K = 40
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
    """User -> entity set, as corpus.entity_sets maps them, over sorted ids ``users``; the sets must not change."""

    def __init__(self, sets: Mapping[str, frozenset[str]], users: Sequence[str]):
        super().__init__(sets)
        self.users = users
        self.category_codes: dict = {}  # kept by recommender.cf_categories
        self.last_sums: tuple = (None,)  # kept by recommender._cf_sums

    @cached_property
    def positions(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Sorted entity ids, and CSR ``indptr`` and int32 ``indices``: users[i]'s positions in them in set order."""
        sets = [self.get(user, ()) for user in self.users]
        ids = sorted(set().union(*sets))
        at = {entity: i for i, entity in enumerate(ids)}.__getitem__
        indptr = np.cumsum([0, *map(len, sets)])
        return ids, indptr, np.fromiter(map(at, chain.from_iterable(sets)), np.int32, indptr[-1])

    @cached_property
    def holders(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Entity id -> ascending int32 positions of its holders in ``users``, and each user's entity count."""
        ids, indptr, indices = self.positions
        u, sizes = len(self.users), np.diff(indptr)
        held = np.sort(indices.astype(np.int64) * u + np.repeat(np.arange(u), sizes)) % u  # by entity, then user
        ends = np.bincount(indices, minlength=len(ids)).cumsum()
        return dict(zip(ids, np.split(held.astype(np.int32), ends[:-1]))), sizes


_NO_SCORES = (np.empty(0, np.intp), np.empty(0))


class SimilarityContext:
    """Lazily built indexes over one corpus for fast feature evaluation.

    Everything is derived from an immutable corpus, so a context is safe for
    concurrent reads once built. Graphs and indexes are built on first use.
    Content indexes and slices hold positions in ``users``, the corpus users
    sorted by id; a graph built from the corpus orders its rows the same way.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.users = sorted(corpus.users)
        self._graphs: dict[str, InteractionGraph] = {}
        self._entity_sets: dict[str, EntitySets] = {}

    def graph(self, name: str) -> InteractionGraph:
        if name not in self._graphs:
            if name == "social":
                self._graphs[name] = build_social_graph(self.corpus)
            elif name == "colocation":
                self._graphs[name] = build_colocation_graph(self.corpus)
            else:
                raise ValueError(f"unknown graph: {name!r}")
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

        Each score is bit-identical to the definition in tests/oracles.py.
        ``directed`` is the larger of the two one-directional counts, so that
        it yields a neighbourhood like every other feature.
        """
        if spec.graph is None:
            holders, size = self.entity_sets(spec.entity_kind).holders
            own = self.entity_sets(spec.entity_kind)[self.users[t]]
            if not own:
                return _NO_SCORES
            counts = np.bincount(np.concatenate([holders[e] for e in own]), minlength=len(self.users))
            n = len(own)
            counts[t] = 0
            # under total every other user scores at least n, sharing or not
            v = np.delete(np.arange(len(counts)), t) if spec.feature == "total" else np.flatnonzero(counts)
            c = counts[v]
        else:
            graph = self.graph(spec.graph)
            size = graph.degrees
            n = int(size[t])
            if not n:
                return _NO_SCORES
            if spec.feature == "pa":
                v = np.flatnonzero(size)
                v = v[v != t]
                return v, (n * size[v]).astype(float)
            if spec.feature == "aa":
                return graph.adamic_adar(t)
            # every user two hops away shares c >= 1 neighbours with the target, and every neighbour interacted
            v, c = graph.pair_counts(t) if spec.feature == "directed" else graph.shared_counts(t)
        if spec.feature in ("common", "cn", "directed"):
            scores = c.astype(float)
        elif spec.feature == "jaccard":
            scores = c / (n + size[v] - c)
        elif spec.feature == "no":
            scores = c / (n + size[v])
        else:
            scores = (n + size[v] - c).astype(float)
        return v, scores
