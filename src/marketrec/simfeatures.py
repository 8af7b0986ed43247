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
from typing import AbstractSet, Optional

from .corpus import Corpus, entity_sets
from .graphs import InteractionGraph, build_colocation_graph, build_social_graph

DEFAULT_K = 40

_CONTENT_SUFFIXES = {
    "common": "common_entities",
    "total": "total_entities",
    "jaccard": "jaccard_entities",
}
_NETWORK_SUFFIXES = {
    "directed": "directed_interactions",
    "cn": "common_neighbors",
    "jaccard": "jaccard_neighbors",
    "aa": "adamic_adar",
    "no": "neighborhood_overlap",
    "pa": "preferential_attachment",
}
# (prefix, selector) -> (source, entity kind)
_CONTENT_SELECTORS = {
    ("mp", "purchases"): ("marketplace", "purchases"),
    ("mp", "sellers"): ("marketplace", "sellers"),
    ("mp", "categories"): ("marketplace", "categories"),
    ("sn", "groups"): ("social", "groups"),
    ("sn", "interests"): ("social", "interests"),
    ("loc", "favored"): ("location", "favored_locations"),
    ("loc", "shared"): ("location", "shared_locations"),
    ("loc", "monitored"): ("location", "monitored_locations"),
}
# prefix -> (source, graph name); the directed feature only exists on the
# social graph because co-attendance has no direction.
_GRAPH_SELECTORS = {
    "sn": ("social", "social"),
    "loc": ("location", "colocation"),
}


class UnknownFeatureError(ValueError):
    """A feature identifier does not name any known similarity feature."""


class UnknownUserError(KeyError):
    """A target user id is not part of the corpus user universe."""


@dataclass(frozen=True)
class FeatureSpec:
    """Resolved form of a feature identifier."""

    source: str  # marketplace | social | location
    family: str  # content | network
    feature: str  # canonical feature name
    entity_kind: Optional[str] = None  # content features only
    graph: Optional[str] = None  # network features only: social | colocation

    @property
    def feature_id(self) -> str:
        return _ID_BY_SPEC[self]


def _enumerate_features():
    table = {}
    for (prefix, selector), (source, kind) in _CONTENT_SELECTORS.items():
        for suffix, feature in _CONTENT_SUFFIXES.items():
            fid = f"{prefix}.{selector}.{suffix}"
            table[fid] = FeatureSpec(source, "content", feature, entity_kind=kind)
    for prefix, (source, graph) in _GRAPH_SELECTORS.items():
        for suffix, feature in _NETWORK_SUFFIXES.items():
            if feature == "directed_interactions" and graph != "social":
                continue
            fid = f"{prefix}.graph.{suffix}"
            table[fid] = FeatureSpec(source, "network", feature, graph=graph)
    return table


_SPEC_BY_ID = _enumerate_features()
_ID_BY_SPEC = {spec: fid for fid, spec in _SPEC_BY_ID.items()}
ALL_FEATURE_IDS = tuple(_SPEC_BY_ID)


def parse_feature_id(feature_id: str) -> FeatureSpec:
    try:
        return _SPEC_BY_ID[feature_id]
    except KeyError:
        raise UnknownFeatureError(f"unknown feature id: {feature_id!r}") from None


def common_entities(a: AbstractSet[str], b: AbstractSet[str]) -> int:
    return len(a & b)


def total_entities(a: AbstractSet[str], b: AbstractSet[str]) -> int:
    return len(a | b)


def jaccard_entities(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def directed_interactions(corpus: Corpus, actor: str, target: str) -> int:
    """Count of social interactions from ``actor`` to ``target`` (one direction)."""
    return sum(1 for s in corpus.social if s.actor == actor and s.target == target)


def common_neighbors(graph: InteractionGraph, u: str, v: str) -> int:
    return len(graph.neighbors(u) & graph.neighbors(v))


def jaccard_neighbors(graph: InteractionGraph, u: str, v: str) -> float:
    union = len(graph.neighbors(u) | graph.neighbors(v))
    return len(graph.neighbors(u) & graph.neighbors(v)) / union if union else 0.0


def adamic_adar(graph: InteractionGraph, u: str, v: str) -> float:
    # Shared neighbours of degree <= 1 would divide by log(1) = 0; they cannot
    # occur in a well-formed undirected graph and are skipped defensively.
    score = 0.0
    for z in sorted(graph.neighbors(u) & graph.neighbors(v)):
        degree = graph.degree(z)
        if degree > 1:
            score += 1.0 / math.log(degree)
    return score


def neighborhood_overlap(graph: InteractionGraph, u: str, v: str) -> float:
    total = graph.degree(u) + graph.degree(v)
    return len(graph.neighbors(u) & graph.neighbors(v)) / total if total else 0.0


def preferential_attachment(graph: InteractionGraph, u: str, v: str) -> int:
    return graph.degree(u) * graph.degree(v)


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


class SimilarityContext:
    """Lazily built indexes over one corpus for fast feature evaluation.

    Everything is derived from an immutable corpus, so a context is safe for
    concurrent reads once built. Graphs can be supplied up front when they
    are shared across contexts (they do not depend on purchase rows).
    """

    def __init__(
        self,
        corpus: Corpus,
        social_graph: InteractionGraph | None = None,
        colocation_graph: InteractionGraph | None = None,
    ):
        self.corpus = corpus
        self._graphs: dict[str, InteractionGraph | None] = {
            "social": social_graph,
            "colocation": colocation_graph,
        }
        self._entity_sets: dict[str, dict[str, frozenset[str]]] = {}
        self._entity_index: dict[str, dict[str, set[str]]] = {}
        self._directed: dict[tuple[str, str], int] | None = None

    def built_graph(self, name: str) -> InteractionGraph | None:
        """The named graph if it was supplied or already built, else None."""
        return self._graphs.get(name)

    def graph(self, name: str) -> InteractionGraph:
        if self._graphs.get(name) is None:
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

    def score(self, spec: FeatureSpec | str, u: str, v: str) -> float:
        """Similarity of a user pair under one feature.

        Directed interactions are symmetrized here as the max over both
        directions, so that every feature yields a usable neighbourhood;
        the one-directional count stays available via directed_interactions().
        """
        if isinstance(spec, str):
            spec = parse_feature_id(spec)
        if spec.family == "content":
            sets = self.entity_sets(spec.entity_kind)
            a = sets.get(u, frozenset())
            b = sets.get(v, frozenset())
            if spec.feature == "common_entities":
                return float(common_entities(a, b))
            if spec.feature == "total_entities":
                return float(total_entities(a, b))
            return jaccard_entities(a, b)
        if spec.feature == "directed_interactions":
            return float(max(self.directed_count(u, v), self.directed_count(v, u)))
        graph = self.graph(spec.graph)
        if spec.feature == "common_neighbors":
            return float(common_neighbors(graph, u, v))
        if spec.feature == "jaccard_neighbors":
            return jaccard_neighbors(graph, u, v)
        if spec.feature == "adamic_adar":
            return adamic_adar(graph, u, v)
        if spec.feature == "neighborhood_overlap":
            return neighborhood_overlap(graph, u, v)
        return float(preferential_attachment(graph, u, v))

    def k_nearest(
        self, feature: FeatureSpec | str, target: str, k: int = DEFAULT_K
    ) -> SimilarityMatrixSlice:
        """Top-k candidates by positive similarity to ``target``.

        Raises UnknownUserError for users outside the corpus universe; users
        that exist but have no data for the feature get an empty slice.
        """
        spec = parse_feature_id(feature) if isinstance(feature, str) else feature
        if target not in self.corpus.users:
            raise UnknownUserError(target)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        best = heapq.nsmallest(k, ((-s, v) for v, s in self._scores(spec, target, k).items()))
        return SimilarityMatrixSlice(target=target, scored=tuple((v, -s) for s, v in best))

    def _scores(self, spec: FeatureSpec, target: str, k: int) -> dict[str, float]:
        """Positive scores, bit-identical to score(), of every user that can make the top-k."""
        if spec.family == "content":
            sets = self.entity_sets(spec.entity_kind)
            own = sets.get(target, frozenset())
            index = self.entity_index(spec.entity_kind)
            shared = Counter(chain.from_iterable(index[entity] for entity in own))
            size = lambda v: len(sets.get(v, ()))  # noqa: E731
        else:
            graph = self.graph(spec.graph)
            own = graph.neighbors(target)
            if spec.feature == "directed_interactions":
                count = self.directed_count
                return {v: float(max(count(target, v), count(v, target))) for v in own}
            if spec.feature == "preferential_attachment":
                ranked = (entry for entry in graph.by_degree if entry[0] != target)
                return {v: float(len(own) * d) for v, d in islice(ranked, k)} if own else {}
            if spec.feature == "adamic_adar":
                # z in sorted order adds each pair's terms in adamic_adar()'s order
                scores: dict[str, float] = {}
                for z in sorted(own):
                    if graph.degree(z) > 1:
                        weight = 1.0 / math.log(graph.degree(z))
                        for v in graph.neighbors(z):
                            scores[v] = scores.get(v, 0.0) + weight
                scores.pop(target, None)
                return scores
            shared = Counter(chain.from_iterable(graph.neighbors(z) for z in own))
            size = graph.degree
        del shared[target]
        n = len(own)
        if spec.feature in ("common_entities", "common_neighbors"):
            return {v: float(c) for v, c in shared.items()}
        if spec.feature in ("jaccard_entities", "jaccard_neighbors"):
            return {v: c / (n + size(v) - c) for v, c in shared.items()}
        if spec.feature == "neighborhood_overlap":
            return {v: c / (n + size(v)) for v, c in shared.items()}
        # total entities: unless the target has none, every other user scores
        return {v: float(n + size(v) - shared[v]) for v in self.corpus.users - {target}} if n else {}
