"""Top-N recommenders: popularity baseline, user-based CF, and weighted-sum hybrids."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Mapping, Optional, Sequence

from .corpus import Corpus, low_level_category, top_level_category
from .simfeatures import SimilarityMatrixSlice

# task -> (list kind, category extractor); product lists extract no category
TASK_LISTS = {
    "products": ("product", None),
    "low_categories": ("low_category", low_level_category),
    "top_categories": ("top_category", top_level_category),
}
_EXTRACTOR_BY_KIND = dict(TASK_LISTS.values())
DEFAULT_N = 10


@dataclass(frozen=True)
class RecommendationList:
    """Ranked top-N items with scores for one target user.

    Items are ordered by descending score with ties broken by ascending item
    id. Product lists never contain items the target already owns in the data
    they were built from. An empty list means no recommendation was possible.
    """

    target: str
    kind: str  # product | top_category | low_category
    items: tuple[tuple[str, float], ...]

    def __len__(self) -> int:
        return len(self.items)

    def item_ids(self) -> tuple[str, ...]:
        return tuple(item for item, _ in self.items)


@dataclass(frozen=True)
class HybridWeights:
    """Per-component weights for the weighted-sum hybrid."""

    weights: Mapping[str, float]

    def __post_init__(self):
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("hybrid weights must be non-negative")
        if not any(w > 0 for w in self.weights.values()):
            raise ValueError("no informative component: no weight is positive")


def _ranked(scores: Mapping[str, float], n: Optional[int]) -> tuple[tuple[str, float], ...]:
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(ordered[:n] if n is not None else ordered)


def popularity_counts(corpus: Corpus, kind: str) -> dict[str, int]:
    """Purchase-frequency counts per item for one list kind.

    Products are counted per purchase row (repeat purchases count multiply).
    For category kinds, each row contributes the top- or low-level category
    of its product; uncategorized products contribute nothing.
    """
    if kind not in _EXTRACTOR_BY_KIND:
        raise ValueError(f"unknown list kind: {kind!r}")
    extract = _EXTRACTOR_BY_KIND[kind]
    counts: dict[str, int] = {}
    for purchase in corpus.purchases:
        key = purchase.product if extract is None else extract(corpus.products[purchase.product])
        if key is not None:
            counts[key] = counts.get(key, 0) + 1
    return counts


def most_popular(
    corpus: Corpus,
    kind: str,
    n: Optional[int] = DEFAULT_N,
    owned: frozenset[str] = frozenset(),
    target: str = "",
    ranking: Optional[Sequence[tuple[str, float]]] = None,
) -> RecommendationList:
    """Most purchased items overall; ``owned`` products are excluded for product lists.

    ``ranking`` accepts every item as (item, float(count)) by descending count,
    ties by ascending id, as ``most_popular(corpus, kind, None).items`` gives it,
    so callers serving many users rank once; each list then walks it, skipping
    owned products, until it has ``n`` items. Without one it is ranked here.
    """
    if ranking is None:
        counts = popularity_counts(corpus, kind)
        ranking = _ranked({item: float(c) for item, c in counts.items()}, None)
    if kind == "product":
        ranking = (entry for entry in ranking if entry[0] not in owned)
    return RecommendationList(target=target, kind=kind, items=tuple(islice(ranking, n)))


def cf_candidate_scores(
    slice_: SimilarityMatrixSlice, purchase_sets: Mapping[str, frozenset[str]]
) -> dict[str, float]:
    """Score every product owned by a neighbour but not by the target.

    The score of an item is the sum of the similarities of the neighbours
    that own it. Returns the full (untruncated) candidate pool.
    """
    owned = purchase_sets.get(slice_.target, frozenset())
    scores: dict[str, float] = {}
    for neighbor, sim in slice_.scored:
        for item in purchase_sets.get(neighbor, frozenset()):
            if item not in owned:
                scores[item] = scores.get(item, 0.0) + sim
    return scores


def cf_products(
    slice_: SimilarityMatrixSlice,
    purchase_sets: Mapping[str, frozenset[str]],
    n: int = DEFAULT_N,
) -> RecommendationList:
    """User-based CF product list from a neighbourhood slice.

    An empty slice yields an empty list, signalling that no recommendation
    was possible for this target.
    """
    scores = cf_candidate_scores(slice_, purchase_sets)
    return RecommendationList(target=slice_.target, kind="product", items=_ranked(scores, n))


def cf_categories(
    slice_: SimilarityMatrixSlice,
    corpus: Corpus,
    purchase_sets: Mapping[str, frozenset[str]],
    level: str,
    n: int = DEFAULT_N,
) -> RecommendationList:
    """Category predictions derived from the full CF product candidate pool.

    Each candidate product contributes its top- or low-level category once;
    a category's score is its share of all extracted category occurrences.
    Products without categories are skipped.
    """
    kind, extract = TASK_LISTS.get(f"{level}_categories", (None, None))
    if extract is None:
        raise ValueError(f"level must be 'top' or 'low', got {level!r}")
    counts: dict[str, int] = {}
    total = 0
    for item in cf_candidate_scores(slice_, purchase_sets):
        category = extract(corpus.products[item])
        if category is None:
            continue
        counts[category] = counts.get(category, 0) + 1
        total += 1
    scores = {category: count / total for category, count in counts.items()}
    return RecommendationList(target=slice_.target, kind=kind, items=_ranked(scores, n))


def normalize_scores(rec: RecommendationList) -> RecommendationList:
    """Min-max rescale scores to [0, 1] within one list, preserving order.

    Constant-score lists map to all ones; empty lists are returned unchanged.
    """
    if not rec.items:
        return rec
    values = [score for _, score in rec.items]
    low, high = min(values), max(values)
    if high == low:
        items = tuple((item, 1.0) for item, _ in rec.items)
    else:
        span = high - low
        items = tuple((item, (score - low) / span) for item, score in rec.items)
    return RecommendationList(target=rec.target, kind=rec.kind, items=items)


def weighted_sum_hybrid(
    lists: Mapping[str, RecommendationList],
    weights: HybridWeights | Mapping[str, float],
    n: int = DEFAULT_N,
    target: str = "",
    kind: str = "",
) -> RecommendationList:
    """Combine normalized component lists into one ranking.

    An item's combined score sums, over the components, its score in that
    component (0 if absent) times the component weight. Component lists must
    already be normalized and belong to the same target and kind.
    """
    if isinstance(weights, HybridWeights):
        weights = weights.weights
    combined: dict[str, float] = {}
    for component in sorted(lists):
        weight = weights.get(component, 0.0)
        if weight <= 0:
            continue
        for item, score in lists[component].items:
            combined[item] = combined.get(item, 0.0) + weight * score
    for rec in lists.values():
        target = target or rec.target
        kind = kind or rec.kind
    return RecommendationList(target=target, kind=kind, items=_ranked(combined, n))
