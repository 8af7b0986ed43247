"""Top-N recommenders: popularity baseline, user-based CF, and weighted-sum hybrids."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, low_level_category, top_level_category
from .simfeatures import EntitySets, SimilarityMatrixSlice, best_first, check_length, top_n

TASK_LISTS = {"products": "product", "low_categories": "low_category", "top_categories": "top_category"}
_EXTRACTOR_BY_KIND = {"product": None, "low_category": low_level_category, "top_category": top_level_category}
DEFAULT_N = 10
_NO_PRODUCTS = np.empty(0, np.int32)


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


def list_items(corpus: Corpus, kind: str, products: Iterable[str]) -> Iterable[str]:
    """The items of list kind ``kind`` that ``products`` stand for, in input order.

    Product lists take the ids as given, repeats included. Category kinds take
    each product's top- or low-level category and skip uncategorized products.
    """
    if kind not in _EXTRACTOR_BY_KIND:
        raise ValueError(f"unknown list kind: {kind!r}")
    extract = _EXTRACTOR_BY_KIND[kind]
    if extract is None:
        return products
    return [c for c in map(extract, map(corpus.products.__getitem__, products)) if c is not None]


def popularity_counts(corpus: Corpus, kind: str) -> dict[str, int]:
    """Purchase-frequency counts per ``list_items`` item, one per purchase row (repeats count multiply)."""
    return dict(Counter(list_items(corpus, kind, (purchase.product for purchase in corpus.purchases))))


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
    check_length(n)
    if kind not in _EXTRACTOR_BY_KIND:
        raise ValueError(f"unknown list kind: {kind!r}")
    if ranking is None:
        ranking = top_n({item: float(c) for item, c in popularity_counts(corpus, kind).items()}, None)
    if kind == "product":
        ranking = (entry for entry in ranking if entry[0] not in owned)
    return RecommendationList(target=target, kind=kind, items=tuple(islice(ranking, n)))


def _cf_sums(slice_: SimilarityMatrixSlice, purchase_sets: Mapping[str, frozenset[str]]):
    """Sorted product ids, the neighbours' positions in them in slice order, and each position's CF sum.

    ``np.bincount`` adds each sum in input order, slice order, so it is bit-identical to tests/oracles.py.
    The target's products read 0, as non-candidates do: slice similarities are positive.
    """
    sets = purchase_sets if isinstance(purchase_sets, EntitySets) else EntitySets(purchase_sets)
    products, held = sets.positions
    arrays = [held.get(neighbor, _NO_PRODUCTS) for neighbor, _ in slice_.scored]
    weights = np.array([sim for _, sim in slice_.scored]).repeat(list(map(len, arrays)))
    flat = np.concatenate([_NO_PRODUCTS, *arrays])
    sums = np.bincount(flat, weights, len(products))
    sums[held.get(slice_.target, _NO_PRODUCTS)] = 0.0
    return products, flat, sums


def cf_candidate_scores(
    slice_: SimilarityMatrixSlice, purchase_sets: Mapping[str, frozenset[str]]
) -> dict[str, float]:
    """Score every product owned by a neighbour but not by the target.

    The score of an item is the sum of the similarities of the neighbours
    that own it, added in slice order. Returns the full (untruncated) candidate pool.
    """
    products, flat, sums = _cf_sums(slice_, purchase_sets)
    return {products[p]: float(sums[p]) for p in dict.fromkeys(flat.tolist()) if sums[p]}


def cf_products(
    slice_: SimilarityMatrixSlice,
    purchase_sets: Mapping[str, frozenset[str]],
    n: int = DEFAULT_N,
) -> RecommendationList:
    """User-based CF product list from a neighbourhood slice.

    An empty slice yields an empty list, signalling that no recommendation
    was possible for this target.
    """
    products, _, sums = _cf_sums(slice_, purchase_sets)
    candidates = sums.nonzero()[0]  # ascending positions, so ties break by ascending id
    positions, scores = best_first(candidates, sums[candidates], n)
    names = map(products.__getitem__, positions.tolist())
    return RecommendationList(target=slice_.target, kind="product", items=tuple(zip(names, scores.tolist())))


def cf_categories(
    slice_: SimilarityMatrixSlice,
    corpus: Corpus,
    purchase_sets: Mapping[str, frozenset[str]],
    kind: str,
    n: int = DEFAULT_N,
) -> RecommendationList:
    """Category predictions of one list kind from the full CF product candidate pool.

    The pool is every product a neighbour owns and the target does not, the
    keys of ``cf_candidate_scores``; shares need no similarity sums. Each
    candidate product contributes its ``list_items`` category of ``kind``
    ("top_category" or "low_category") once; a category's score is its share
    of all the pool's category occurrences.
    """
    if _EXTRACTOR_BY_KIND.get(kind) is None:
        raise ValueError(f"kind must be 'top_category' or 'low_category', got {kind!r}")
    owned = purchase_sets.get(slice_.target, frozenset())
    pool = frozenset().union(*(purchase_sets.get(v, ()) for v, _ in slice_.scored)) - owned
    counts = Counter(list_items(corpus, kind, pool))
    total = sum(counts.values())
    scores = {category: count / total for category, count in counts.items()}
    return RecommendationList(target=slice_.target, kind=kind, items=tuple(top_n(scores, n)))


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
    weights: Mapping[str, float],
    n: int = DEFAULT_N,
    target: str = "",
    kind: str = "",
) -> RecommendationList:
    """Combine normalized component lists into one ranking for ``target`` and ``kind``.

    An item's combined score sums, over the components, its score in that
    component (0 if absent) times the component weight. Component lists must
    already be normalized and belong to the same target and kind.
    """
    combined: dict[str, float] = {}
    for component in sorted(lists):
        weight = weights.get(component, 0.0)
        if weight <= 0:
            continue
        for item, score in lists[component].items:
            combined[item] = combined.get(item, 0.0) + weight * score
    return RecommendationList(target=target, kind=kind, items=tuple(top_n(combined, n)))
