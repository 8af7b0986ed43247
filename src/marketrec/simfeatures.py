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
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, TypeVar

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


@dataclass(frozen=True)
class SimilarityMatrixSlice:
    """Scored candidate neighbours for one target user, best first.

    Ordering is total: descending similarity, ties broken by ascending
    candidate id. All similarities are positive; candidates never include
    the target.
    """

    target: str
    scored: tuple[tuple[str, float], ...]

    def __len__(self) -> int:
        return len(self.scored)

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
    """User -> entity set, as ``corpus.entity_sets`` maps them; the sets must not change."""

    @cached_property
    def positions(self) -> tuple[list[str], dict[str, np.ndarray]]:
        """Sorted entity ids and each user's entities as int32 positions in them, in set order."""
        ids = sorted(set().union(*self.values()))
        at = {entity: i for i, entity in enumerate(ids)}.__getitem__
        return ids, {user: np.fromiter(map(at, s), np.int32, len(s)) for user, s in self.items()}

    @cached_property
    def holders(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Entity id -> int32 positions of its holders in the sorted user ids, and each user's entity count."""
        users = sorted(self)
        held: dict[str, list[int]] = defaultdict(list)
        for i, user in enumerate(users):
            for entity in self[user]:
                held[entity].append(i)
        sizes = np.fromiter(map(len, map(self.__getitem__, users)), np.int64, len(users))
        return {e: np.array(p, np.int32) for e, p in held.items()}, sizes


_NO_SCORES = (np.empty(0, np.intp), np.empty(0))


class SimilarityContext:
    """Lazily built indexes over one corpus for fast feature evaluation.

    Everything is derived from an immutable corpus, so a context is safe for
    concurrent reads once built. Graphs and indexes are built on first use.
    Content indexes hold positions in ``users``, the corpus users sorted by
    id; a graph built from the corpus orders its rows the same way.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.users = sorted(corpus.users)
        self._position = {user: i for i, user in enumerate(self.users)}
        self._graphs: dict[str, InteractionGraph] = {}
        self._entity_sets: dict[str, EntitySets] = {}
        self._directed: dict[tuple[str, str], int] | None = None

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
            self._entity_sets[kind] = EntitySets(entity_sets(self.corpus, kind))
        return self._entity_sets[kind]

    def directed_count(self, actor: str, target: str) -> int:
        if self._directed is None:
            self._directed = Counter((s.actor, s.target) for s in self.corpus.social)
        return self._directed.get((actor, target), 0)

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
        positions, scores = best_first(*self._scores(spec, self._position[target]), k)
        names = map(self.users.__getitem__, positions.tolist())
        return SimilarityMatrixSlice(target, tuple(zip(names, scores.tolist())))

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
            if spec.feature == "directed":
                v, count, target = graph.neighbor_positions(t), self.directed_count, self.users[t]
                return v, np.array([max(count(target, u), count(u, target))
                                    for u in map(self.users.__getitem__, v.tolist())], float)
            if spec.feature == "aa":
                # z ascending adds each pair's terms in the oracle's order, one += at a time;
                # adding 0.0 leaves a non-member's sum as it was. Builtin sum() compensates float
                # sums from Python 3.12, and np.log rounds some degrees unlike the oracle's
                # math.log. A neighbour of degree 1 links only to the target, and log(1) = 0
                near, sums = graph.neighbor_positions(t), np.zeros(len(self.users))
                for z, d in zip(near.tolist(), size[near].tolist()):
                    if d > 1:
                        sums += graph.row_bits(z) * (1.0 / math.log(d))
                sums[t] = 0.0
                v = np.flatnonzero(sums)
                return v, sums[v]
            # every user two hops away shares c >= 1 neighbours with the target
            v, c = graph.shared_counts(t)
        if spec.feature in ("common", "cn"):
            scores = c.astype(float)
        elif spec.feature == "jaccard":
            scores = c / (n + size[v] - c)
        elif spec.feature == "no":
            scores = c / (n + size[v])
        else:
            scores = (n + size[v] - c).astype(float)
        return v, scores
