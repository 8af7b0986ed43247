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
    and a category scores its share of them: the one-row case of ``category_shares``, with names.
    """
    if _EXTRACTOR_BY_KIND.get(kind) is None:
        raise ValueError(f"kind must be 'top_category' or 'low_category', got {kind!r}")
    check_length(n)
    sums = _cf_sums(slice_, purchase_sets)
    categories = purchase_sets.codes(_EXTRACTOR_BY_KIND[kind], corpus.products)[0]
    width = len(categories) if n is None else min(n, len(categories))  # category_shares allocates n columns a row
    (row,), (shares,) = category_shares(sums[None], purchase_sets, corpus, kind, width)
    items = zip(map(categories.__getitem__, row[row >= 0].tolist()), shares[row >= 0].tolist())
    return RecommendationList(target=slice_.target, kind=kind, items=tuple(items))


def category_shares(sums: np.ndarray, purchase_sets: EntitySets, corpus: Corpus, kind: str, n: int):
    """Each row of CF ``sums``: its ``n`` best categories of ``kind`` by share of its pool (the positions of positive
    sums), ties by code, as int32 codes into ``purchase_sets.codes``' sorted categories (-1 pads) and float64 shares,
    n columns each. ``purchase_sets.codes`` keeps each position's code, so one ``np.bincount`` counts every row."""
    categories, codes = purchase_sets.codes(_EXTRACTOR_BY_KIND[kind], corpus.products)
    size, (rows, at) = len(categories), (sums > 0).nonzero()  # size: the code of no category
    counts = np.bincount(rows * (size + 1) + codes[at], minlength=len(sums) * (size + 1)).reshape(-1, size + 1)
    counts = counts[:, :size]
    shares = np.zeros((len(sums), max(size, n)))  # zero columns past ``size``: every row has n entries to sort
    np.divide(counts, counts.sum(axis=1, keepdims=True), out=shares[:, :size], where=counts > 0)
    order = (-shares).argsort(axis=1, kind="stable")[:, :n]
    top = np.take_along_axis(shares, order, axis=1)
    return np.where(top > 0, order, -1).astype(np.int32), top


def normalize_scores(rec: RecommendationList) -> RecommendationList:
    """Min-max rescale scores to [0, 1] within one list, preserving order: the one-row case of normalized_rows."""
    scores = normalized_rows(np.zeros((1, len(rec)), np.int32), np.array([[s for _, s in rec.items]]))
    return RecommendationList(target=rec.target, kind=rec.kind, items=tuple(zip(rec.item_ids(), scores[0].tolist())))


def normalized_rows(codes: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Each row's scores min-max rescaled to [0, 1] over its items (``codes`` >= 0); a span of 0 gives 1.0, as do
    pads. An empty row's low of inf and span of -inf are never divided, so it warns of nothing."""
    filled = codes >= 0
    low = scores.min(axis=1, initial=np.inf, where=filled, keepdims=True)
    span = scores.max(axis=1, initial=-np.inf, where=filled, keepdims=True) - low
    return np.divide(scores - low, span, out=np.ones(scores.shape), where=filled & (span != 0))


def weighted_sum_hybrid(
    lists: Mapping[str, RecommendationList],
    weights: Mapping[str, float],
    n: int = DEFAULT_N,
    target: str = "",
    kind: str = "",
) -> RecommendationList:
    """Combine normalized component lists into one ranking for ``target`` and ``kind``: weighted_rows of one row.

    An item's combined score sums, over the components, its score in that component (0 if absent) times the
    component weight. Component lists must already be normalized and belong to the same target and kind.
    """
    check_length(n)
    table = sorted({item for made in lists.values() for item in made.item_ids()})
    parts = [(np.array([[bisect_left(table, item) for item in lists[c].item_ids()]], np.int32),
              np.array([[s for _, s in lists[c].items]]), weights[c]) for c in sorted(lists) if weights.get(c, 0.0) > 0]
    (codes,), (scores,) = weighted_rows(parts, 1, len(table) if n is None else min(n, len(table)), len(table))
    items = zip(map(table.__getitem__, codes[codes >= 0].tolist()), scores[codes >= 0].tolist())
    return RecommendationList(target=target, kind=kind, items=tuple(items))


def weighted_rows(parts, rows: int, n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` best items of each of ``rows`` rows by weighted sum, as int32 codes (-1 pads) and float64 scores.

    ``parts`` holds each component's codes into a table of ``size`` items, normalized scores and weight (> 0), in
    sorted component order. One ``np.bincount`` of the (row, code) keys in that order adds each sum from 0.0, as a
    dict would. Every key ranks, a sum of 0.0 too, ties by code; memory is O(rows · Σ widths), not rows × size."""
    keys = np.concatenate([np.empty(0, int), *((np.arange(rows)[:, None] * size + c)[c >= 0] for c, _, _ in parts)])
    found, at = np.unique(keys, return_inverse=True)
    sums = np.bincount(at, np.concatenate([np.empty(0), *(w * s[c >= 0] for c, s, w in parts)]), len(found))
    row, code = np.divmod(found, max(size, 1))
    order = np.lexsort((code, -sums, row))
    row, code, sums = row[order], code[order], sums[order]
    rank = np.arange(len(row)) - np.searchsorted(row, row)  # place within the row
    block, keep = (np.full((rows, n), -1, np.int32), np.zeros((rows, n))), rank < n
    block[0][row[keep], rank[keep]], block[1][row[keep], rank[keep]] = code[keep], sums[keep]
    return block
