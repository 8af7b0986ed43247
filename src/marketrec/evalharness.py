"""Offline evaluation: holdout protocol, ranking metrics, and the experiment runner.

The protocol withholds 10 distinct purchased products per user into a test
set; only users with at least 11 distinct purchases are evaluated, but every
user's data still powers neighbourhood construction (post-filtering).
Reported metrics per recommender: nDCG@N, Precision@N, Recall@N, Diversity@N,
and User Coverage, plus Recall/Precision curve points for k = 1..10.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Collection, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from .corpus import PURCHASE_KINDS, Corpus, Product, with_purchases
# perfbench/tracer.py patches the recommender functions under these names, so even unused ones stay imported
from .recommender import (
    DEFAULT_N,
    TASK_LISTS,
    category_shares,
    cf_categories,
    cf_products,
    list_items,
    most_popular,
    normalize_scores,
    normalized_rows,
    popularity_counts,
    weighted_rows,
    weighted_sum_hybrid,
)
from .simfeatures import DEFAULT_K, SimilarityContext, parse_feature_id

TASKS = tuple(TASK_LISTS)
AVERAGING_MODES = ("harsh", "skip")
MOST_POPULAR_ID = "most_popular"
HOLDOUT_SIZE = 10
CURVE_KS = tuple(range(1, 11))

_Item = TypeVar("_Item")
_DIVERSITY_ROWS = 128  # lists per diversity pass: about 0.3 MB of pair arrays at n = 10


@dataclass(frozen=True)
class Split:
    """Train/test partition of the purchase rows.

    ``test`` maps each eligible user to the withheld product ids; all other
    purchase rows are training. Per user, training and test never overlap.
    """

    training: tuple
    test: Mapping[str, frozenset[str]]
    eligible: frozenset[str]
    seed: int


def make_split(corpus: Corpus, seed: int) -> Split:
    """Withhold ``HOLDOUT_SIZE`` distinct products per user with enough purchases.

    A user is eligible iff they purchased at least HOLDOUT_SIZE + 1 distinct
    products, so every eligible user keeps at least one training purchase.
    Ineligible users keep all purchases in training. Deterministic per seed.
    """
    return _withhold(
        corpus.purchases, seed, lambda user, t: HOLDOUT_SIZE if t > HOLDOUT_SIZE else 0
    )


def make_weighting_split(split: Split, seed: int) -> Split:
    """Inner holdout carved from a split's training rows, for hybrid weighting.

    Each eligible user with at least two distinct training products withholds
    up to ``HOLDOUT_SIZE`` further products, always keeping one in training.
    The outer test set is never touched.
    """
    return _withhold(
        split.training, seed,
        lambda user, t: min(HOLDOUT_SIZE, t - 1) if user in split.eligible else 0,
    )


def _withhold(purchases, seed: int, count: Callable[[str, int], int]) -> Split:
    """Withhold ``count(user, t)`` of each user's t distinct products from ``purchases``.

    One generator per call visits users in id order and draws only when the
    count is positive, from the distinct products in id order, so the
    withheld sets depend on the seed and the purchase sets, not on row order.
    """
    by_user: dict[str, set[str]] = defaultdict(set)
    for purchase in purchases:
        by_user[purchase.buyer].add(purchase.product)
    rng = random.Random(seed)
    test: dict[str, frozenset[str]] = {}
    for user in sorted(by_user):
        size = count(user, len(by_user[user]))
        if size > 0:
            test[user] = frozenset(rng.sample(sorted(by_user[user]), size))
    empty: frozenset[str] = frozenset()
    training = tuple(p for p in purchases if p.product not in test.get(p.buyer, empty))
    return Split(training=training, test=test, eligible=frozenset(test), seed=seed)


def _hit_row(recommended: Sequence[str], relevant: Collection[str], k: int) -> list[list[bool]]:
    """Whether each of the first k positions holds a relevant item, as a block of one row; a repeat hits once, first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    row, seen = [False] * len(recommended[:k]), set()
    for position, item in enumerate(recommended[:k]):
        if item in relevant and item not in seen:
            row[position] = True
            seen.add(item)
    return [row]


def _accuracy_sums(hits, sizes: list[int], k: int, cuts: Sequence[int]) -> list:
    """nDCG@k, and recall and precision at each cut-off of ``cuts``, each summed over the lists in order.

    ``hits`` holds one row per list of whether each listed position is relevant, and ``sizes`` each list's
    number of relevant items. Past a row's end nothing hits, so its hit count stays and precision at a longer
    cut-off c is that count / c. The hit at position p gains 1/log2(1 + p), over the ideal DCG of min(size, k)
    hits; with nothing relevant, nDCG and recall are 0.
    """
    hits = np.pad(np.asarray(hits, dtype=bool), ((0, 0), (0, 1)))  # one miss past the end: no row is empty
    sizes = np.array(sizes, dtype=np.int64)[:, None]
    depth = min(k, max(hits.shape[1], sizes.max(initial=0)))  # the discounts that a hit or the ideal DCG reads
    discounts = np.array([1.0 / math.log2(1 + position) for position in range(1, depth + 1)])
    # a list with nothing relevant has no hit, so the ideal DCG of k hits gives it 0 as well
    ideal = np.cumsum(discounts)[np.minimum(sizes[:, 0], k) - 1]
    ndcg = np.cumsum(hits[:, :depth] * discounts[: hits.shape[1]], axis=1)[:, -1] / ideal
    counts = np.cumsum(hits, axis=1)[:, np.minimum(cuts, hits.shape[1]) - 1]
    recall = np.divide(counts, sizes, out=np.zeros(counts.shape), where=sizes > 0)
    return [_ordered_sums(rows) for rows in (ndcg, recall, counts / np.array(cuts))]


def recall_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by the number of relevant items (0 if none)."""
    return _accuracy_sums(_hit_row(recommended, relevant, k), [len(relevant)], k, [k])[1][-1]


def precision_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by k, even when fewer items were produced."""
    return _accuracy_sums(_hit_row(recommended, relevant, k), [len(relevant)], k, [k])[2][-1]


def ndcg_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Binary-relevance nDCG: the hit at position p contributes 1/log2(1 + p).

    The ideal ranking places min(|relevant|, k) relevant items on top; returns
    0 when there are no relevant items.
    """
    return _accuracy_sums(_hit_row(recommended, relevant, k), [len(relevant)], k, [k])[0]


def category_distance(a: Product, b: Product) -> float:
    """Default item distance: 1 minus Jaccard similarity of category path sets.

    Distinct products where either path is empty are maximally distant;
    a product has distance 0 to itself regardless of categorization.
    """
    if a.id == b.id:
        return 0.0
    return _category_set_distance(frozenset(a.category_path), frozenset(b.category_path))


def _category_set_distance(first: frozenset[str], second: frozenset[str]) -> float:
    """1 minus the Jaccard similarity of two category sets; 1 when either is empty."""
    if not first or not second:
        return 1.0
    return 1.0 - len(first & second) / len(first | second)


def diversity_at_k(
    recommended: Sequence[_Item], distance: Callable[[_Item, _Item], float], k: Optional[int] = None
) -> float:
    """Mean pairwise distance over all ordered pairs in the (truncated) list.

    ``distance`` must be symmetric: each unordered pair is measured once and
    its value added for both orders, in ordered-pair sequence. Lists with
    fewer than two items have no pairs and contribute 0. ``k`` must be >= 0 or None.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0 or None, got {k}")
    items = list(recommended[:k])
    positions = np.arange(len(items))[None, :]
    return _ordered_sums(_diversity_rows(positions, lambda a, b: distance(items[a], items[b])))


def _diversity_rows(items: np.ndarray, distance: Callable[[int, int], float]) -> np.ndarray:
    """Mean distance over the ordered position pairs of each row of codes (-1 pads).

    Each row adds its distance matrix in row-major order, 0.0 on the diagonal and at pads. Passes of
    _DIVERSITY_ROWS rows find their code pairs, and ``distance`` gets each one present once, lower code first.
    """
    rows, width = items.shape
    first, second = np.triu_indices(width)  # one row per position pair i <= j, one column per list
    slots = np.zeros((width, width), int)
    slots[first, second] = slots[second, first] = np.arange(len(first))
    starts = range(0, rows if width else 0, _DIVERSITY_ROWS)
    passes = []  # per pass: its sorted low << 32 | high keys (-1: diagonal or pad), and each position pair's index
    for codes in (items[i : i + _DIVERSITY_ROWS].T for i in starts):
        low, high = np.minimum(codes[first], codes[second]), np.maximum(codes[first], codes[second])
        keys, at = np.unique(np.where((low >= 0) & (first < second)[:, None], low.astype(np.int64) << 32 | high, -1),
                             return_inverse=True)  # sorts: numpy 2's plain np.unique hashes, slower on these keys
        passes.append((keys, at.astype(np.min_scalar_type(len(keys)))))  # 2 bytes an index at N = 10
    pairs = np.sort(np.concatenate([[-1], *(keys for keys, _ in passes)]))
    pairs = pairs[np.diff(pairs, prepend=-2) > 0]  # each key once, -1 first
    values = np.array([0.0, *map(distance, (pairs[1:] >> 32).tolist(), (pairs[1:] & 0xFFFFFFFF).tolist())])
    totals = np.zeros(rows)
    for i, (keys, at) in zip(starts, passes):
        totals[i : i + _DIVERSITY_ROWS] = np.cumsum(values[np.searchsorted(pairs, keys)][at][slots.ravel()], axis=0)[-1]
    m = np.count_nonzero(items >= 0, axis=1)
    return np.divide(totals, m * (m - 1), out=np.zeros(rows), where=m > 1)


def _ordered_sums(rows: np.ndarray):
    """Column sums of ``rows`` added top to bottom, as a loop adds (np.sum adds pairwise)."""
    return (np.cumsum(rows, axis=0)[-1] if len(rows) else np.zeros(rows.shape[1:])).tolist()


@dataclass(frozen=True)
class HybridDef:
    """A named weighted-sum hybrid over component recommenders.

    Components are feature ids or "most_popular". When ``weights`` is None,
    weights are derived per task from each component's nDCG@N on an inner
    weighting split; explicit weights are used as given.
    """

    name: str
    components: tuple[str, ...]
    weights: Optional[Mapping[str, float]] = None


RecommenderDef = Union[str, HybridDef]


@dataclass(frozen=True)
class ReportRow:
    recommender: str
    ndcg: float
    precision: float
    recall: float
    diversity: float
    coverage: float


@dataclass(frozen=True)
class CurvePoint:
    recommender: str
    k: int
    recall: float
    precision: float


@dataclass
class EvalReport:
    """Metric table, curve points, and run metadata for one task."""

    task: str
    list_length: int
    rows: list[ReportRow] = field(default_factory=list)
    curves: list[CurvePoint] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)


class _Engine:
    """Caches slices, list columns and relevant keys over one split's training data.

    A column is E × min(n, T) int32 codes (-1 pads) and float64 scores over the kind's T-item table in ``tables``;
    ``kinds`` are the list kinds that the run reads, the only ones with a table, and one walk over a CF column's
    slices writes all of them. An engine over a split of ``outer``'s training data takes from ``outer`` every slice
    whose feature reads no entity kind of ``PURCHASE_KINDS``: graph features and group, interest and location
    content features read only rows that no split changes.
    """

    def __init__(self, corpus, split, knn_k, list_length, kinds: Sequence[str], outer: Optional[_Engine] = None):
        self.corpus = corpus
        self.kinds = tuple(kinds)
        self.split = split
        self.eligible = sorted(split.eligible)
        self.outer = outer
        self.training = with_purchases(corpus, split.training)
        self.context = SimilarityContext(self.training)
        self.purchase_sets = self.context.entity_sets("purchases")
        self.knn_k = knn_k
        self.n = list_length
        self._slices: dict = {}
        self._lists: dict = {}  # (recommender id, list kind) -> its column's code and score blocks
        # list kind -> item id -> code, its place in id order among the items that the training products stand for
        items = {kind: sorted(set(list_items(corpus, kind, self.purchase_sets.ids))) for kind in self.kinds}
        self.tables = {kind: {item: code for code, item in enumerate(found)} for kind, found in items.items()}
        self._relevant: dict = {}

    def slice_for(self, feature_id, user):
        if self.outer is not None and parse_feature_id(feature_id).entity_kind not in PURCHASE_KINDS:
            return self.outer.slice_for(feature_id, user)
        per_user = self._slices.setdefault(feature_id, {})
        if user not in per_user:
            per_user[user] = self.context.k_nearest(feature_id, user, self.knn_k)
        return per_user[user]

    def lists(self, rec: RecommenderDef, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The eligible users' lists of one kind, in ``eligible`` order, as an E × min(n, T) code and score block.

        Kept per (recommender, kind), but for a hybrid's, which must carry its weights: weighted_rows combines its
        positive-weight components' normalized kept blocks when it is read, so it cannot shadow a component's name.
        A CF column offers its remaining slices to ``keep_cf_sums`` until every slice is served, and each block it
        returns writes the rows of every kind in ``kinds``, so a CF column is there for those kinds only.
        """
        if isinstance(rec, HybridDef):
            parts = [(*self.lists(c, kind), rec.weights[c]) for c in sorted(rec.components) if rec.weights[c] > 0]
            parts = [(codes, normalized_rows(codes, scores), w) for codes, scores, w in parts]
            return weighted_rows(parts, len(self.eligible), min(self.n, len(self.tables[kind])), len(self.tables[kind]))
        if (rec, kind) not in self._lists:
            sets, width = self.purchase_sets, {k: min(self.n, len(table)) for k, table in self.tables.items()}
            if rec == MOST_POPULAR_ID:  # product rows walk the ranking past each user's own products
                ranking = most_popular(self.training, kind, None).items
                owned = [sets.get(user, ()) for user in self.eligible] if kind == "product" else [()]
                rows = [list(islice(((p, s) for p, s in ranking if p not in own), width[kind])) for own in owned]
                rows = rows if kind == "product" else rows * len(self.eligible)
                self._lists[rec, kind] = _block(rows, self.tables[kind], width[kind])
            else:
                slices = [self.slice_for(rec, user) for user in self.eligible]
                blocks = {k: [_block([], {}, width[k])] for k in self.kinds}  # code and score blocks in eligible order
                while slices:
                    sums = sets.keep_cf_sums(slices)
                    kept, slices = slices[: len(sums)], slices[len(sums) :]
                    for k, made in blocks.items():
                        if k == "product":  # a cf_products list each: tests patch this name (ROADMAP item 1b)
                            lists = [cf_products(slice_, purchase_sets=sets, n=width[k]).items for slice_ in kept]
                            made.append(_block(lists, self.tables[k], width[k]))
                        else:
                            made.append(category_shares(sums, sets, self.corpus, k, width[k]))
                self._lists.update({(rec, k): tuple(map(np.concatenate, zip(*made))) for k, made in blocks.items()})
        return self._lists[rec, kind]

    def relevant(self, task) -> tuple[np.ndarray, np.ndarray]:
        """The eligible users' numbers of withheld items as ``task``'s list kind, in ``eligible`` order, and the
        sorted keys row · T + code of those in the kind's table of T items; an item outside it is never listed."""
        if task not in self._relevant:
            at = self.tables[TASK_LISTS[task]]
            items = [frozenset(list_items(self.corpus, TASK_LISTS[task], self.split.test[u])) for u in self.eligible]
            keys = [row * len(at) + at[i] for row, found in enumerate(items) for i in found if i in at]
            self._relevant[task] = np.array(list(map(len, items)), int), np.sort(np.array(keys, np.int64))
        return self._relevant[task]

    def hits(self, task, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Whether each code of a ``task`` column is relevant, in a block of the column's width, and the relevant set
        sizes."""
        rows = np.arange(len(codes))[:, None] * len(self.tables[TASK_LISTS[task]])
        return (codes >= 0) & np.isin(rows + codes, self.relevant(task)[1]), self.relevant(task)[0]

    @cached_property
    def category_classes(self) -> tuple[np.ndarray, Callable[[int, int], float]]:
        """The int32 code of each training product's category set by product position, then -1 that a pad gathers,
        and the cached distance of two codes.

        Built when diversity is first measured, so the weighting engine never builds it. The code distance of two
        distinct products is their category_distance, and no engine list repeats a product.
        """
        classes: dict[frozenset[str], int] = {}
        paths = (frozenset(self.corpus.products[p].category_path) for p in self.purchase_sets.ids)
        codes = np.array([*(classes.setdefault(path, len(classes)) for path in paths), -1], np.int32)
        sets = tuple(classes)
        return codes, cache(lambda a, b: _category_set_distance(sets[a], sets[b]))


def _block(rows: list, at: Mapping[str, int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """An E × n block of int32 codes, -1 padding a short row, and one of float64 scores from each row's (item, score)
    pairs, an item's code being ``at[item]``."""
    filled = np.arange(n) < np.array([len(row) for row in rows], int)[:, None]
    block, size = (np.full(filled.shape, -1, np.int32), np.zeros(filled.shape)), int(np.count_nonzero(filled))
    block[0][filled] = np.fromiter((at[item] for row in rows for item, _ in row), np.int32, size)
    block[1][filled] = np.fromiter((score for row in rows for _, score in row), float, size)
    return block


def _evaluate(engine: _Engine, rec: RecommenderDef, task: str, averaging: str):
    """Run one recommender over all eligible users and aggregate the metrics.

    Accuracy reads the task column's hits; coverage and diversity read the
    product column (on the products task, the task column) as category-class
    codes. Users go in sorted order. Returns the report row, the curve points,
    and diagnostic counts.
    """
    name, n = _display_id(rec), engine.n
    codes = engine.lists(rec, TASK_LISTS[task])[0]
    products = codes if task == "products" else engine.lists(rec, "product")[0]
    lengths = np.count_nonzero(products >= 0, axis=1)
    served_task = np.count_nonzero(codes[:, :1] >= 0)
    ndcg_sum, recall, precision = _accuracy_sums(*engine.hits(task, codes), n, (*CURVE_KS, n))
    diversity = _diversity_rows(engine.category_classes[0][products], engine.category_classes[1])
    total = len(engine.eligible)
    accuracy_base = total if averaging == "harsh" else served_task
    acc = (lambda s: s / accuracy_base) if accuracy_base else (lambda s: 0.0)
    row = ReportRow(
        recommender=name,
        ndcg=acc(ndcg_sum),
        precision=acc(precision[-1]),
        recall=acc(recall[-1]),
        diversity=_ordered_sums(diversity) / total if total else 0.0,
        coverage=int(np.count_nonzero(lengths)) / total if total else 0.0,
    )
    curves = [CurvePoint(name, k, acc(recall[k - 1]), acc(precision[k - 1])) for k in CURVE_KS]
    return row, curves, {"served": served_task, "short_product_lists": int(np.count_nonzero(lengths < 2))}


def _harsh_ndcg(engine: _Engine, rec_id: str, task: str) -> float:
    """Harsh mean nDCG@N of one recommender's task lists: _evaluate's row.ndcg alone."""
    hits, sizes = engine.hits(task, engine.lists(rec_id, TASK_LISTS[task])[0])
    return _accuracy_sums(hits, sizes, engine.n, [engine.n])[0] / len(sizes) if len(sizes) else 0.0


def run_experiment(
    corpus: Corpus,
    split: Split,
    recommenders: Sequence[RecommenderDef],
    task: str,
    *,
    knn_k: int = DEFAULT_K,
    list_length: int = DEFAULT_N,
    averaging: str = "harsh",
) -> EvalReport:
    """Evaluate recommenders on one task and return the full report.

    Recommendations are computed from the split's training data (marketplace
    profiles are rebuilt from training purchases; social and location data are
    untouched), then scored against the withheld test sets of the eligible
    users. Unserved users count as zero under "harsh" averaging and are
    excluded from accuracy means under "skip"; coverage and diversity always
    average over all eligible users. Derived hybrid weights come from the
    inner weighting split seeded with the split's seed + 1; a hybrid whose
    derived weights are all 0 serves only empty lists.
    """
    check_experiment(
        recommenders, task, knn_k=knn_k, list_length=list_length, averaging=averaging
    )
    engine = _Engine(corpus, split, knn_k, list_length, dict.fromkeys([TASK_LISTS[task], "product"]))
    inner: Optional[_Engine] = None  # built for the first derived-weight hybrid
    report = EvalReport(task=task, list_length=list_length)
    meta = report.metadata
    meta["task"] = task
    meta["seed"] = str(split.seed)
    meta["knn_k"] = str(knn_k)
    meta["list_length"] = str(list_length)
    meta["averaging"] = averaging
    meta["eligible_users"] = str(len(split.eligible))
    meta["recommenders"] = ", ".join(_display_id(r) for r in recommenders)

    for rec in recommenders:
        name = _display_id(rec)
        if isinstance(rec, HybridDef):
            if rec.weights is None:
                if inner is None:
                    inner = _Engine(
                        corpus, make_weighting_split(split, split.seed + 1), knn_k, list_length, [TASK_LISTS[task]],
                        outer=engine,
                    )
                    meta["weighting_seed"] = str(inner.split.seed)
                rec = replace(rec, weights={c: _harsh_ndcg(inner, c, task) for c in rec.components})
            for component in rec.components:
                meta[f"weight.{name}.{component}"] = _fmt(rec.weights[component])
        row, curves, diagnostics = _evaluate(engine, rec, task, averaging)
        report.rows.append(row)
        report.curves.extend(curves)
        meta[f"served.{name}"] = str(diagnostics["served"])
        meta[f"short_product_lists.{name}"] = str(diagnostics["short_product_lists"])
    return report


def check_experiment(
    recommenders: Sequence[RecommenderDef],
    task: str,
    *,
    knn_k: int,
    list_length: int,
    averaging: str,
) -> None:
    """Raise ValueError for any experiment setting run_experiment cannot honour.

    Unknown feature ids raise UnknownFeatureError, a ValueError. A hybrid
    lists each component once; explicit weights name each component, are
    finite and non-negative, and at least one is positive.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {', '.join(TASKS)}, got {task!r}")
    if averaging not in AVERAGING_MODES:
        raise ValueError(
            f"averaging must be one of {', '.join(AVERAGING_MODES)}, got {averaging!r}"
        )
    if knn_k < 1:
        raise ValueError(f"knn_k must be >= 1, got {knn_k}")
    if list_length < 1:
        raise ValueError(f"list_length must be >= 1, got {list_length}")
    if not recommenders:
        raise ValueError("at least one recommender is required")
    duplicates = _duplicates([_display_id(rec) for rec in recommenders])
    if duplicates:
        raise ValueError(f"duplicate recommender ids: {duplicates}")
    for rec in recommenders:
        for component in _component_ids(rec):
            if component != MOST_POPULAR_ID:
                parse_feature_id(component)
        if isinstance(rec, HybridDef):
            if not rec.components:
                raise ValueError(f"hybrid {rec.name!r} lists no components")
            duplicates = _duplicates(rec.components)
            if duplicates:
                raise ValueError(f"hybrid {rec.name!r} lists components twice: {duplicates}")
            if rec.weights is not None:
                if set(rec.weights) != set(rec.components):
                    raise ValueError(f"hybrid {rec.name!r} needs one weight per component")
                if not all(0 <= w < math.inf for w in rec.weights.values()):
                    raise ValueError("hybrid weights must be finite and non-negative")
                if not any(w > 0 for w in rec.weights.values()):
                    raise ValueError("no informative component: no weight is positive")


def _duplicates(ids: Sequence[str]) -> str:
    """The ids listed more than once, sorted and comma-separated; empty if none."""
    return ", ".join(sorted({i for i in ids if ids.count(i) > 1}))


def _component_ids(rec: RecommenderDef) -> tuple[str, ...]:
    if isinstance(rec, HybridDef):
        return rec.components
    return (rec,)


def _display_id(rec: RecommenderDef) -> str:
    return rec.name if isinstance(rec, HybridDef) else rec


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def format_report_table(report: EvalReport) -> str:
    n = report.list_length
    lines = [f"recommender\tndcg@{n}\tp@{n}\tr@{n}\td@{n}\tuc"]
    for row in report.rows:
        values = (row.ndcg, row.precision, row.recall, row.diversity, row.coverage)
        lines.append("\t".join([row.recommender, *map(_fmt, values)]))
    return "\n".join(lines) + "\n"


def format_curves_table(report: EvalReport) -> str:
    lines = ["recommender\tk\trecall\tprecision"]
    for point in report.curves:
        lines.append(
            f"{point.recommender}\t{point.k}\t{_fmt(point.recall)}\t{_fmt(point.precision)}"
        )
    return "\n".join(lines) + "\n"


def format_metadata_table(report: EvalReport) -> str:
    lines = [f"{key}\t{value}" for key, value in report.metadata.items()]
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.tsv, curves.tsv, and meta.tsv; returns the written paths."""
    base = Path(out_dir)
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in [
        ("report.tsv", format_report_table(report)),
        ("curves.tsv", format_curves_table(report)),
        ("meta.tsv", format_metadata_table(report)),
    ]:
        path = base / name
        path.write_text(content, encoding="utf-8")
        written.append(path)
    return written
