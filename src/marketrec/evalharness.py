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
from pathlib import Path
from typing import Callable, Collection, Mapping, Optional, Sequence, TypeVar, Union

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


def _hits(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> Collection[int]:
    """Ascending positions 1..k of the relevant items in the top k; a repeated item hits once, first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits: dict[str, int] = {}
    for position, item in enumerate(recommended[:k], start=1):
        if item in relevant and item not in hits:
            hits[item] = position
    return hits.values()


def recall_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by the number of relevant items (0 if none)."""
    hits = _hits(recommended, relevant, k)
    return len(hits) / len(relevant) if relevant else 0.0


def precision_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by k, even when fewer items were produced."""
    return len(_hits(recommended, relevant, k)) / k


def ndcg_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Binary-relevance nDCG: the hit at position p contributes 1/log2(1 + p).

    The ideal ranking places min(|relevant|, k) relevant items on top; returns
    0 when there are no relevant items.
    """
    dcg = 0.0
    for position in _hits(recommended, relevant, k):
        dcg += 1.0 / math.log2(1 + position)
    ideal = min(len(relevant), k)
    if ideal == 0:
        return 0.0
    idcg = 0.0
    for position in range(1, ideal + 1):
        idcg += 1.0 / math.log2(1 + position)
    return dcg / idcg


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
    items = list(recommended[:k]) if k is not None else list(recommended)
    m = len(items)
    if m < 2:
        return 0.0
    rows = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = distance(items[i], items[j])
    # adding the 0.0 diagonal leaves every partial sum unchanged
    total = 0.0
    for row in rows:
        for value in row:
            total += value
    return total / (m * (m - 1))


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
        self.outer = outer
        self.training = with_purchases(corpus, split.training)
        self.context = SimilarityContext(self.training)
        self.purchase_sets = self.context.entity_sets("purchases")
        self.knn_k = knn_k
        self.n = list_length
        self._slices: dict = {}
        self._lists: dict = {}
        self._popular: dict = {}  # list kind -> full popularity ranking
        self._relevant: dict = {}

    def slice_for(self, feature_id, user):
        if self.outer is not None and parse_feature_id(feature_id).entity_kind not in PURCHASE_KINDS:
            return self.outer.slice_for(feature_id, user)
        per_user = self._slices.setdefault(feature_id, {})
        if user not in per_user:
            per_user[user] = self.context.k_nearest(feature_id, user, self.knn_k)
        return per_user[user]

    def task_list(self, rec: RecommenderDef, task, user) -> RecommendationList:
        """One user's list for ``task``; a hybrid's comes from its components' cached lists.

        A hybrid must carry its weights. Its list is combined on every request
        and never cached, so a hybrid cannot shadow a component of the same name.
        """
        kind = TASK_LISTS[task]
        if isinstance(rec, HybridDef):
            lists = {c: normalize_scores(self.task_list(c, task, user)) for c in rec.components}
            return weighted_sum_hybrid(lists, rec.weights, self.n, target=user, kind=kind)
        per_user = self._lists.setdefault((rec, kind), {})
        if user not in per_user:
            if rec == MOST_POPULAR_ID:
                if kind not in self._popular:
                    self._popular[kind] = most_popular(self.training, kind, None).items
                per_user[user] = most_popular(
                    self.training, kind, self.n, owned=self.purchase_sets.get(user, frozenset()),
                    target=user, ranking=self._popular[kind],
                )
            elif kind == "product":
                per_user[user] = cf_products(self.slice_for(rec, user), self.purchase_sets, self.n)
            else:
                per_user[user] = cf_categories(
                    self.slice_for(rec, user), self.corpus, self.purchase_sets, kind, self.n
                )
        return per_user[user]

    def relevant(self, task, user) -> frozenset[str]:
        key = (task, user)
        if key not in self._relevant:
            self._relevant[key] = frozenset(list_items(self.corpus, TASK_LISTS[task], self.split.test[user]))
        return self._relevant[key]

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

    Accuracy reads the task lists; coverage and diversity read the product
    lists, which on the products task are the task lists. Returns the report
    row, the curve points, and diagnostic counts. Accumulation iterates users
    in sorted order so results do not depend on evaluation scheduling.
    """
    name = _display_id(rec)
    eligible = sorted(engine.split.eligible)
    n = engine.n
    recall_sums = {k: 0.0 for k in CURVE_KS}
    precision_sums = {k: 0.0 for k in CURVE_KS}
    ndcg_sum = recall_n = precision_n = diversity_sum = 0.0
    served_products = served_task = short_product_lists = 0
    codes, class_distance = engine.category_classes

    for user in eligible:
        task_list = engine.task_list(rec, task, user)
        product_list = task_list if task == "products" else engine.task_list(rec, "products", user)
        relevant = engine.relevant(task, user)
        ids = task_list.item_ids()
        if len(product_list) > 0:
            served_products += 1
        if len(ids) > 0:
            served_task += 1
        ndcg_sum += ndcg_at_k(ids, relevant, n)
        recall_n += recall_at_k(ids, relevant, n)
        precision_n += precision_at_k(ids, relevant, n)
        # engine lists never repeat an item: one running hit count serves every curve k
        hits = 0
        for k in CURVE_KS:
            if k <= len(ids) and ids[k - 1] in relevant:
                hits += 1
            recall_sums[k] += hits / len(relevant) if relevant else 0.0
            precision_sums[k] += hits / k
        product_ids = product_list.item_ids()
        if len(product_ids) < 2:
            short_product_lists += 1
        diversity_sum += diversity_at_k([codes[p] for p in product_ids], class_distance, n)

    total = len(eligible)
    accuracy_base = total if averaging == "harsh" else served_task
    acc = (lambda s: s / accuracy_base) if accuracy_base else (lambda s: 0.0)
    row = ReportRow(
        recommender=name,
        ndcg=acc(ndcg_sum),
        precision=acc(precision_n),
        recall=acc(recall_n),
        diversity=diversity_sum / total if total else 0.0,
        coverage=served_products / total if total else 0.0,
    )
    curves = [
        CurvePoint(name, k, acc(recall_sums[k]), acc(precision_sums[k]))
        for k in CURVE_KS
    ]
    diagnostics = {"served": served_task, "short_product_lists": short_product_lists}
    return row, curves, diagnostics


def _harsh_ndcg(engine: _Engine, rec_id: str, task: str) -> float:
    """Harsh mean nDCG@N of one recommender's task lists: _evaluate's row.ndcg alone."""
    eligible = sorted(engine.split.eligible)
    ndcg_sum = 0.0
    for user in eligible:
        ids = engine.task_list(rec_id, task, user).item_ids()
        ndcg_sum += ndcg_at_k(ids, engine.relevant(task, user), engine.n)
    return ndcg_sum / len(eligible) if eligible else 0.0


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
