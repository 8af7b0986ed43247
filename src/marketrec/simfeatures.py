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

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Mapping, Optional, TypeVar

from .corpus import Corpus, entity_sets
from .graphs import InteractionGraph, build_colocation_graph, build_social_graph, set_bits

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


def top_n(scores: Mapping[_Key, float], n: Optional[int]) -> list[tuple[_Key, float]]:
    """The ``n`` best (key, score) pairs by descending score, ties by ascending key; all if None.

    Only entries at or above the n-th best score (a sort of bare floats) are sorted as tuples.
    """
    cut = sorted(scores.values(), reverse=True)[n - 1] if n and n <= len(scores) else -math.inf
    entries = sorted([(-s, key) for key, s in scores.items() if s >= cut])
    return [(key, -s) for s, key in entries[:n]]


class SimilarityContext:
    """Lazily built indexes over one corpus for fast feature evaluation.

    Everything is derived from an immutable corpus, so a context is safe for
    concurrent reads once built. Graphs and indexes are built on first use.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._graphs: dict[str, InteractionGraph] = {}
        self._entity_sets: dict[str, dict[str, frozenset[str]]] = {}
        self._entity_index: dict[str, dict[str, set[str]]] = {}
        self._sizes: dict[str, dict[str, int]] = {}
        self._by_size: dict[str, list[tuple[str, int]]] = {}
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

    def entity_sets(self, kind: str) -> dict[str, frozenset[str]]:
        if kind not in self._entity_sets:
            self._entity_sets[kind] = entity_sets(self.corpus, kind)
        return self._entity_sets[kind]

    def _set_sizes(self, kind: str) -> dict[str, int]:
        """Every user's entity count for ``kind``."""
        if kind not in self._sizes:
            self._sizes[kind] = {user: len(values) for user, values in self.entity_sets(kind).items()}
        return self._sizes[kind]

    def by_size(self, kind: str) -> list[tuple[str, int]]:
        """Every user with their entity count for ``kind``, largest first, ties by id."""
        if kind not in self._by_size:
            self._by_size[kind] = top_n(self._set_sizes(kind), None)
        return self._by_size[kind]

    def entity_index(self, kind: str) -> dict[str, set[str]]:
        """Inverted index entity id -> users holding it, for counting shared entities."""
        if kind not in self._entity_index:
            index: dict[str, set[str]] = {}
            for user, values in self.entity_sets(kind).items():
                for entity in values:
                    index.setdefault(entity, set()).add(user)
            self._entity_index[kind] = index
        return self._entity_index[kind]

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
        best = top_n(self._scores(spec, target, k), k)
        if spec.graph:
            names = self.graph(spec.graph).users
            best = [(names[v], s) for v, s in best]
        return SimilarityMatrixSlice(target, tuple(best))

    def _scores(self, spec: FeatureSpec, target: str, k: int) -> dict[str | int, float]:
        """Positive scores of every user that can make the top-k.

        Keys are user ids, or for a graph feature positions in its id-sorted ``users``.
        Each score is bit-identical to the definition in tests/oracles.py.
        ``directed`` is the larger of the two one-directional counts, so that
        it yields a neighbourhood like every other feature.
        """
        if spec.graph is None:
            own = self.entity_sets(spec.entity_kind).get(target, frozenset())
            index = self.entity_index(spec.entity_kind)
            counts = Counter(chain.from_iterable(index[entity] for entity in own))
            del counts[target]
            n, shared, size = len(own), counts.items(), self._set_sizes(spec.entity_kind)
        else:
            graph = self.graph(spec.graph)
            i = graph.index.get(target, -1)
            own = graph.masks[i] if i >= 0 else 0
            if not own:
                return {}
            masks, n, size = graph.masks, graph.degrees[i], graph.degrees
            if spec.feature == "directed":
                count = self.directed_count
                named = ((v, graph.users[v]) for v in set_bits(own))
                return {v: float(max(count(target, u), count(u, target))) for v, u in named}
            if spec.feature == "pa":
                ranked = (entry for entry in graph.by_degree if entry[0] != target)
                return {graph.index[v]: float(n * d) for v, d in islice(ranked, k)}
            if spec.feature == "aa":
                # z in ascending id order adds each pair's terms in the oracle's order; a
                # neighbour of degree 1 links only to the target, and log(1) = 0
                sums: dict[int, float] = {}
                for z in set_bits(own):
                    if size[z] > 1:
                        weight = 1.0 / math.log(size[z])
                        for v in set_bits(masks[z] ^ (1 << i)):
                            sums[v] = sums.get(v, 0.0) + weight
                return sums
            # every user two hops away shares c >= 1 neighbours with the target
            reach = 0
            for z in set_bits(own):
                reach |= masks[z]
            shared = ((v, (own & masks[v]).bit_count()) for v in set_bits(reach ^ (1 << i)))
        if spec.feature in ("common", "cn"):
            return {v: float(c) for v, c in shared}
        if spec.feature == "jaccard":
            return {v: c / (n + size[v] - c) for v, c in shared}
        if spec.feature == "no":
            return {v: c / (n + size[v]) for v, c in shared}
        # total entities: unless the target has none, every other user scores. Walk users
        # largest first; once n + size is below the k-th best score, no later user ties it
        scores, best = {}, []
        for v, m in self.by_size(spec.entity_kind) if n else ():
            if len(best) == k and best[0] > n + m:
                break
            if v != target:
                scores[v] = score = float(n + m - counts[v])
                (heapq.heappushpop if len(best) == k else heapq.heappush)(best, score)
        return scores
