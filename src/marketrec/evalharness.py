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
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from .corpus import PURCHASE_KINDS, Corpus, Product, with_purchases
from .recommender import (
    DEFAULT_N,
    TASK_LISTS,
    RecommendationList,
    cf_categories,
    cf_products,
    list_items,
    most_popular,
    normalize_scores,
    popularity_counts,  # unused here, but perfbench/tracer.py patches it under this name
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


def _hit_row(recommended: Sequence[str], relevant: Collection[str], k: int) -> list[bool]:
    """Whether each position 1..k holds a relevant item, padded False; a repeated item hits once, first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    row, seen = [False] * k, set()
    for position, item in enumerate(recommended[:k]):
        if item in relevant and item not in seen:
            row[position] = True
            seen.add(item)
    return row


def _accuracy_sums(hits: list[bool], sizes: list[int], k: int, width: int) -> list:
    """nDCG@k, and recall and precision at cut-offs 1..width, each summed over the lists in order.

    ``hits`` holds one _hit_row of ``width`` per list and ``sizes`` each list's
    number of relevant items. The hit at position p gains 1/log2(1 + p), over
    the ideal DCG of min(size, k) hits; with nothing relevant, nDCG and recall are 0.
    """
    hits = np.array(hits, dtype=bool).reshape(-1, width)
    sizes = np.array(sizes, dtype=np.int64)[:, None]
    discounts = np.array([1.0 / math.log2(1 + position) for position in range(1, k + 1)])
    # a list with nothing relevant has no hit, so the ideal DCG of k hits gives it 0 as well
    ideal = np.cumsum(discounts)[np.minimum(sizes[:, 0], k) - 1]
    ndcg = np.cumsum(hits[:, :k] * discounts, axis=1)[:, -1] / ideal
    counts = np.cumsum(hits, axis=1)
    recall = np.divide(counts, sizes, out=np.zeros(counts.shape), where=sizes > 0)
    return [_ordered_sums(rows) for rows in (ndcg, recall, counts / np.arange(1, width + 1))]


def recall_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by the number of relevant items (0 if none)."""
    return _accuracy_sums(_hit_row(recommended, relevant, k), [len(relevant)], k, k)[1][-1]


def precision_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by k, even when fewer items were produced."""
    return _accuracy_sums(_hit_row(recommended, relevant, k), [len(relevant)], k, k)[2][-1]


def ndcg_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Binary-relevance nDCG: the hit at position p contributes 1/log2(1 + p).

    The ideal ranking places min(|relevant|, k) relevant items on top; returns
    0 when there are no relevant items.
    """
    return _accuracy_sums(_hit_row(recommended, relevant, k), [len(relevant)], k, k)[0]


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
    """Caches slices, recommendation lists and relevant sets over one split's training data.

    An engine over a split of ``outer``'s training data takes from ``outer``
    every slice whose feature reads no entity kind of ``PURCHASE_KINDS``:
    graph features and group, interest and location content features read
    only rows that no split changes.
    """

    def __init__(self, corpus, split, knn_k, list_length, outer: Optional[_Engine] = None):
        self.corpus = corpus
        self.split = split
        self.eligible = sorted(split.eligible)
        self.outer = outer
        self.training = with_purchases(corpus, split.training)
        self.context = SimilarityContext(self.training)
        self.purchase_sets = self.context.entity_sets("purchases")
        self.knn_k = knn_k
        self.n = list_length
        self._slices: dict = {}
        self._lists: dict = {}  # (recommender id, list kind) -> the eligible users' lists, in eligible order
        self._relevant: dict = {}

    def slice_for(self, feature_id, user):
        if self.outer is not None and parse_feature_id(feature_id).entity_kind not in PURCHASE_KINDS:
            return self.outer.slice_for(feature_id, user)
        per_user = self._slices.setdefault(feature_id, {})
        if user not in per_user:
            per_user[user] = self.context.k_nearest(feature_id, user, self.knn_k)
        return per_user[user]

    def lists(self, rec: RecommenderDef, kind: str) -> Iterable[RecommendationList]:
        """The eligible users' lists of one kind, in ``eligible`` order, kept per (recommender, kind).

        A CF column offers its remaining slices to ``keep_cf_sums`` until every slice is served. A hybrid must carry
        its weights: its lists are combined from its components' kept lists as they are read and never kept, so a
        hybrid cannot shadow a component of the same name.
        """
        if isinstance(rec, HybridDef):  # a generator builds its outermost iterable, the components' columns, at once
            rows = zip(self.eligible, *(self.lists(c, kind) for c in rec.components))
            return (weighted_sum_hybrid(dict(zip(rec.components, map(normalize_scores, row))), rec.weights, self.n,
                                        target=user, kind=kind) for user, *row in rows)
        if (rec, kind) not in self._lists:
            if rec == MOST_POPULAR_ID:
                ranking, owned = most_popular(self.training, kind, None).items, self.purchase_sets.get
                self._lists[rec, kind] = [most_popular(self.training, kind, self.n, owned=owned(u, frozenset()),
                                                       target=u, ranking=ranking) for u in self.eligible]
            else:
                make = cf_products if kind == "product" else partial(cf_categories, corpus=self.corpus, kind=kind)
                slices, column, sets = [self.slice_for(rec, user) for user in self.eligible], [], self.purchase_sets
                while len(column) < len(slices):
                    rest = slices[len(column) :]
                    column += [make(slice_, purchase_sets=sets, n=self.n) for slice_ in rest[: sets.keep_cf_sums(rest)]]
                self._lists[rec, kind] = column
        return self._lists[rec, kind]

    def relevant(self, task) -> list[frozenset[str]]:
        """The eligible users' withheld items as ``task``'s list kind, in ``eligible`` order."""
        if task not in self._relevant:
            items = partial(list_items, self.corpus, TASK_LISTS[task])
            self._relevant[task] = [frozenset(items(self.split.test[user])) for user in self.eligible]
        return self._relevant[task]

    @cached_property
    def category_classes(self) -> tuple[dict[str, int], Callable[[int, int], float]]:
        """Product id -> code of its category set, and the cached distance of two codes.

        Built when diversity is first measured, so the weighting engine never
        builds it. The code distance of two distinct products is their
        category_distance, and no engine list repeats a product.
        """
        classes: dict[frozenset[str], int] = {}
        codes = {
            p.id: classes.setdefault(frozenset(p.category_path), len(classes))
            for p in self.corpus.products.values()
        }
        sets = tuple(classes)
        return codes, cache(lambda a, b: _category_set_distance(sets[a], sets[b]))


def _evaluate(engine: _Engine, rec: RecommenderDef, task: str, averaging: str):
    """Run one recommender over all eligible users and aggregate the metrics.

    Accuracy reads the task lists' hit rows; coverage and diversity read the
    product lists (on the products task, the task lists) as category-class
    codes. Users go in sorted order. Returns the report row, the curve points,
    and diagnostic counts.
    """
    name = _display_id(rec)
    n = engine.n
    width = max(n, len(CURVE_KS))
    codes, class_distance = engine.category_classes
    hits, classes, sizes = [], [], []  # hit rows, product-list class rows, relevant-set sizes
    served_products = served_task = short_product_lists = 0
    task_ids = map(RecommendationList.item_ids, engine.lists(rec, TASK_LISTS[task]))
    if task == "products":  # the product list is the task list: each list is read once
        rows = ((ids, ids) for ids in task_ids)
    else:
        rows = zip(task_ids, map(RecommendationList.item_ids, engine.lists(rec, "product")))

    for (ids, product_ids), relevant in zip(rows, engine.relevant(task)):
        served_task += len(ids) > 0
        served_products += len(product_ids) > 0
        short_product_lists += len(product_ids) < 2
        sizes.append(len(relevant))
        hits += _hit_row(ids, relevant, width)
        classes += ([codes[p] for p in product_ids] + [-1] * n)[:n]

    ndcg_sum, recall, precision = _accuracy_sums(hits, sizes, n, width)
    diversity = _diversity_rows(np.array(classes, dtype=np.int32).reshape(-1, n), class_distance)
    total = len(engine.eligible)
    accuracy_base = total if averaging == "harsh" else served_task
    acc = (lambda s: s / accuracy_base) if accuracy_base else (lambda s: 0.0)
    row = ReportRow(
        recommender=name,
        ndcg=acc(ndcg_sum),
        precision=acc(precision[n - 1]),
        recall=acc(recall[n - 1]),
        diversity=_ordered_sums(diversity) / total if total else 0.0,
        coverage=served_products / total if total else 0.0,
    )
    curves = [CurvePoint(name, k, acc(recall[k - 1]), acc(precision[k - 1])) for k in CURVE_KS]
    return row, curves, {"served": served_task, "short_product_lists": short_product_lists}


def _harsh_ndcg(engine: _Engine, rec_id: str, task: str) -> float:
    """Harsh mean nDCG@N of one recommender's task lists: _evaluate's row.ndcg alone."""
    hits, sizes = [], []
    for task_list, relevant in zip(engine.lists(rec_id, TASK_LISTS[task]), engine.relevant(task)):
        sizes.append(len(relevant))
        hits += _hit_row(task_list.item_ids(), relevant, engine.n)
    return _accuracy_sums(hits, sizes, engine.n, engine.n)[0] / len(sizes) if sizes else 0.0


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
    engine = _Engine(corpus, split, knn_k, list_length)
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
                        corpus, make_weighting_split(split, split.seed + 1), knn_k, list_length,
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
