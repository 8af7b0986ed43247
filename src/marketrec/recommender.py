"""Top-N recommenders: popularity baseline, user-based CF, and weighted-sum hybrids."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, low_level_category, top_level_category
from .simfeatures import EntitySets, SimilarityMatrixSlice, best_first, check_length, top_n

TASK_LISTS = {"products": "product", "low_categories": "low_category", "top_categories": "top_category"}
_EXTRACTOR_BY_KIND = {"product": None, "low_category": low_level_category, "top_category": top_level_category}
DEFAULT_N = 10


@dataclass(frozen=True, slots=True)
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


def _cf_sums(slice_: SimilarityMatrixSlice, sets: EntitySets):
    """``sets.cf_sums(slice_)``: TypeError unless ``sets`` is an EntitySets of SimilarityContext.entity_sets, and
    ValueError unless its ``users`` is the slice's ``universe`` or equal to it (by value only if another list)."""
    if not isinstance(sets, EntitySets):
        raise TypeError(f"purchase sets must come from SimilarityContext.entity_sets, got {type(sets).__name__}")
    if sets.users is not slice_.universe and sets.users != slice_.universe:
        raise ValueError("the slice and the purchase sets are over different user lists")
    return sets.cf_sums(slice_)


def cf_candidate_scores(slice_: SimilarityMatrixSlice, purchase_sets: EntitySets) -> dict[str, float]:
    """Each product a neighbour owns and the target does not -> its owners' similarities, summed in slice order."""
    sums, ids = _cf_sums(slice_, purchase_sets), purchase_sets.ids
    owned = dict.fromkeys(chain.from_iterable(purchase_sets.get(user, ()) for user in slice_.users()))
    return {p: float(sums[i]) for p in owned if sums[i := bisect_left(ids, p)]}


def cf_products(slice_: SimilarityMatrixSlice, purchase_sets: EntitySets, n: int = DEFAULT_N) -> RecommendationList:
    """User-based CF product list from a neighbourhood slice over ``SimilarityContext.entity_sets("purchases")``.

    An empty slice yields an empty list, signalling that no recommendation
    was possible for this target.
    """
    sums = _cf_sums(slice_, purchase_sets)
    candidates = sums.nonzero()[0]  # ascending positions, so ties break by ascending id
    positions, scores = best_first(candidates, sums[candidates], n)
    names = map(purchase_sets.ids.__getitem__, positions.tolist())
    return RecommendationList(target=slice_.target, kind="product", items=tuple(zip(names, scores.tolist())))


def cf_categories(
    slice_: SimilarityMatrixSlice,
    corpus: Corpus,
    purchase_sets: EntitySets,
    kind: str,
    n: int = DEFAULT_N,
) -> RecommendationList:
    """Category predictions of one list kind from the full CF product candidate pool.

    The pool is every product a neighbour owns and the target does not: the nonzero CF sums. Each
    adds its category of ``kind`` ("top_category" or "low_category") once, an uncategorized one none,
    and a category scores its share of them. ``purchase_sets.codes`` keeps per extractor and product table
    the sorted category ids' codes by product position, so one ``np.bincount`` counts, and ties break by id.
    """
    if _EXTRACTOR_BY_KIND.get(kind) is None:
        raise ValueError(f"kind must be 'top_category' or 'low_category', got {kind!r}")
    sums = _cf_sums(slice_, purchase_sets)
    categories, codes = purchase_sets.codes(_EXTRACTOR_BY_KIND[kind], corpus.products)
    counts = np.bincount(codes[sums > 0], minlength=len(categories) + 1)[:-1]
    present = counts.nonzero()[0]
    positions, shares = best_first(present, counts[present] / counts.sum(), n)
    names = map(categories.__getitem__, positions.tolist())
    return RecommendationList(target=slice_.target, kind=kind, items=tuple(zip(names, shares.tolist())))


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
