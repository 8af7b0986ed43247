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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from .corpus import Corpus, Product, with_purchases
from .recommender import (
    DEFAULT_N,
    TASK_LISTS,
    HybridWeights,
    RecommendationList,
    cf_categories,
    cf_products,
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

ItemDistance = Callable[[str, str], float]


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


def make_split(corpus: Corpus, seed: int, holdout: int = HOLDOUT_SIZE) -> Split:
    """Withhold ``holdout`` distinct products per user with enough purchases.

    A user is eligible iff they purchased at least holdout + 1 distinct
    products, so every eligible user keeps at least one training purchase.
    Ineligible users keep all purchases in training. Deterministic per seed.
    """
    by_user: dict[str, set[str]] = defaultdict(set)
    for purchase in corpus.purchases:
        by_user[purchase.buyer].add(purchase.product)
    rng = random.Random(seed)
    test: dict[str, frozenset[str]] = {}
    for user in sorted(by_user):
        distinct = sorted(by_user[user])
        if len(distinct) >= holdout + 1:
            test[user] = frozenset(rng.sample(distinct, holdout))
    empty: frozenset[str] = frozenset()
    training = tuple(
        p for p in corpus.purchases if p.product not in test.get(p.buyer, empty)
    )
    return Split(training=training, test=test, eligible=frozenset(test), seed=seed)


def make_weighting_split(split: Split, seed: int, holdout: int = HOLDOUT_SIZE) -> Split:
    """Inner holdout carved from a split's training rows, for hybrid weighting.

    For each eligible user with at least two distinct training products,
    up to ``holdout`` further products are withheld while always keeping one
    in training. The outer test set is never touched.
    """
    by_user: dict[str, set[str]] = defaultdict(set)
    for purchase in split.training:
        if purchase.buyer in split.eligible:
            by_user[purchase.buyer].add(purchase.product)
    rng = random.Random(seed)
    test: dict[str, frozenset[str]] = {}
    for user in sorted(by_user):
        distinct = sorted(by_user[user])
        if len(distinct) >= 2:
            test[user] = frozenset(rng.sample(distinct, min(holdout, len(distinct) - 1)))
    empty: frozenset[str] = frozenset()
    training = tuple(
        p for p in split.training if p.product not in test.get(p.buyer, empty)
    )
    return Split(training=training, test=test, eligible=frozenset(test), seed=seed)


def recall_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by the number of relevant items (0 if none)."""
    if not relevant:
        return 0.0
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / len(relevant)


def precision_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Hits among the top k divided by k, even when fewer items were produced."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = sum(1 for item in recommended[:k] if item in relevant)
    return hits / k


def ndcg_at_k(recommended: Sequence[str], relevant: frozenset[str] | set[str], k: int) -> float:
    """Binary-relevance nDCG: position p contributes 1/log2(1 + p) when relevant.

    The ideal ranking places min(|relevant|, k) relevant items on top; returns
    0 when there are no relevant items.
    """
    dcg = 0.0
    for position, item in enumerate(recommended[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(1 + position)
    ideal = min(len(relevant), k)
    if ideal == 0:
        return 0.0
    idcg = sum(1.0 / math.log2(1 + position) for position in range(1, ideal + 1))
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
    recommended: Sequence[str], distance: ItemDistance, k: Optional[int] = None
) -> float:
    """Mean pairwise distance over all ordered pairs in the (truncated) list.

    Lists with fewer than two items have no pairs and contribute 0.
    """
    items = list(recommended[:k]) if k is not None else list(recommended)
    m = len(items)
    if m < 2:
        return 0.0
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i != j:
                total += distance(items[i], items[j])
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
    """Caches slices, recommendation lists and relevant sets over one split's training data."""

    def __init__(self, corpus, split, knn_k, list_length, social_graph=None, colocation_graph=None):
        self.corpus = corpus
        self.split = split
        self.training = with_purchases(corpus, split.training)
        self.context = SimilarityContext(
            self.training, social_graph=social_graph, colocation_graph=colocation_graph
        )
        self.purchase_sets = self.context.entity_sets("purchases")
        self.knn_k = knn_k
        self.n = list_length
        self._slices: dict = {}
        self._product_lists: dict = {}
        self._task_lists: dict = {}
        self._popular_task: dict = {}
        self._popular_ranking: Optional[tuple] = None
        self._relevant: dict = {}
        self._category_sets = {p.id: frozenset(p.category_path) for p in corpus.products.values()}

    def slice_for(self, feature_id, user):
        per_user = self._slices.setdefault(feature_id, {})
        if user not in per_user:
            per_user[user] = self.context.k_nearest(feature_id, user, self.knn_k)
        return per_user[user]

    def product_list(self, rec_id, user) -> RecommendationList:
        per_user = self._product_lists.setdefault(rec_id, {})
        if user not in per_user:
            if rec_id == MOST_POPULAR_ID:
                if self._popular_ranking is None:
                    self._popular_ranking = most_popular(self.training, "product", None).items
                owned = self.purchase_sets.get(user, frozenset())
                per_user[user] = most_popular(
                    self.training, "product", self.n, owned=owned, target=user,
                    ranking=self._popular_ranking,
                )
            else:
                per_user[user] = cf_products(
                    self.slice_for(rec_id, user), self.purchase_sets, self.n
                )
        return per_user[user]

    def task_list(self, rec_id, task, user) -> RecommendationList:
        kind, extract = TASK_LISTS[task]
        if extract is None:
            return self.product_list(rec_id, user)
        if rec_id == MOST_POPULAR_ID:
            # identical for every user: no per-user exclusion on categories
            if task not in self._popular_task:
                self._popular_task[task] = most_popular(self.training, kind, self.n)
            return self._popular_task[task]
        per_user = self._task_lists.setdefault((rec_id, task), {})
        if user not in per_user:
            level = task.removesuffix("_categories")
            per_user[user] = cf_categories(
                self.slice_for(rec_id, user), self.corpus, self.purchase_sets, level, self.n
            )
        return per_user[user]

    def relevant(self, task, user) -> frozenset[str]:
        key = (task, user)
        if key not in self._relevant:
            relevant = self.split.test[user]
            _, extract = TASK_LISTS[task]
            if extract is not None:
                relevant = frozenset(extract(self.corpus.products[p]) for p in relevant) - {None}
            self._relevant[key] = relevant
        return self._relevant[key]

    def item_distance(self, a: str, b: str) -> float:
        """category_distance by product id, over category sets built once per engine."""
        if a == b:
            return 0.0
        return _category_set_distance(self._category_sets[a], self._category_sets[b])


def _evaluate(engine: _Engine, name: str, produce, task: str, averaging: str):
    """Run one recommender over all eligible users and aggregate the metrics.

    ``produce(user)`` returns (product list, task list). Returns the report
    row, the curve points, and diagnostic counts. Accumulation iterates users
    in sorted order so results do not depend on evaluation scheduling.
    """
    eligible = sorted(engine.split.eligible)
    n = engine.n
    recall_sums = {k: 0.0 for k in CURVE_KS}
    precision_sums = {k: 0.0 for k in CURVE_KS}
    ndcg_sum = recall_n = precision_n = diversity_sum = 0.0
    served_products = served_task = short_product_lists = 0

    for user in eligible:
        product_list, task_list = produce(user)
        relevant = engine.relevant(task, user)
        ids = task_list.item_ids()
        if len(product_list) > 0:
            served_products += 1
        if len(ids) > 0:
            served_task += 1
        ndcg_sum += ndcg_at_k(ids, relevant, n)
        recall_n += recall_at_k(ids, relevant, n)
        precision_n += precision_at_k(ids, relevant, n)
        # one running hit count gives recall_at_k and precision_at_k for every curve k
        hits = 0
        for k in CURVE_KS:
            if k <= len(ids) and ids[k - 1] in relevant:
                hits += 1
            recall_sums[k] += hits / len(relevant) if relevant else 0.0
            precision_sums[k] += hits / k
        product_ids = product_list.item_ids()
        if len(product_ids) < 2:
            short_product_lists += 1
        diversity_sum += diversity_at_k(product_ids, engine.item_distance, n)

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
    diagnostics = {
        "served": served_task,
        "served_products": served_products,
        "short_product_lists": short_product_lists,
    }
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
    weighting_seed: Optional[int] = None,
) -> EvalReport:
    """Evaluate recommenders on one task and return the full report.

    Recommendations are computed from the split's training data (marketplace
    profiles are rebuilt from training purchases; social and location data are
    untouched), then scored against the withheld test sets of the eligible
    users. Unserved users count as zero under "harsh" averaging and are
    excluded from accuracy means under "skip"; coverage and diversity always
    average over all eligible users.
    """
    check_experiment(
        recommenders, task, knn_k=knn_k, list_length=list_length, averaging=averaging
    )
    engine = _Engine(corpus, split, knn_k, list_length)
    if weighting_seed is None:
        weighting_seed = split.seed + 1

    inner_engine: Optional[_Engine] = None
    quality_cache: dict[str, float] = {}

    def component_quality(component: str) -> float:
        """nDCG@N of one component on the inner weighting split (harsh mean)."""
        nonlocal inner_engine
        if component not in quality_cache:
            if inner_engine is None:
                inner_engine = _Engine(
                    corpus, make_weighting_split(split, weighting_seed), knn_k, list_length,
                    social_graph=engine.context.built_graph("social"),
                    colocation_graph=engine.context.built_graph("colocation"),
                )
            quality_cache[component] = _harsh_ndcg(inner_engine, component, task)
        return quality_cache[component]

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
            if rec.weights is not None:
                weights = HybridWeights(dict(rec.weights))
            else:
                weights = HybridWeights({c: component_quality(c) for c in rec.components})
                meta.setdefault("weighting_seed", str(weighting_seed))
            for component in rec.components:
                meta[f"weight.{name}.{component}"] = _fmt(weights.weights[component])
            produce = _hybrid_producer(engine, rec, weights, task)
        else:
            produce = _simple_producer(engine, rec, task)
        row, curves, diagnostics = _evaluate(engine, name, produce, task, averaging)
        report.rows.append(row)
        report.curves.extend(curves)
        meta[f"served.{name}"] = str(diagnostics["served"])
        meta[f"short_product_lists.{name}"] = str(diagnostics["short_product_lists"])
    return report


def _simple_producer(engine, rec_id, task):
    def produce(user):
        return engine.product_list(rec_id, user), engine.task_list(rec_id, task, user)

    return produce


def _hybrid_producer(engine, hybrid: HybridDef, weights: HybridWeights, task):
    kind, extract = TASK_LISTS[task]

    def produce(user):
        product_lists = {
            c: normalize_scores(engine.product_list(c, user)) for c in hybrid.components
        }
        product = weighted_sum_hybrid(
            product_lists, weights, engine.n, target=user, kind="product"
        )
        if extract is None:
            return product, product
        task_lists = {
            c: normalize_scores(engine.task_list(c, task, user)) for c in hybrid.components
        }
        combined = weighted_sum_hybrid(
            task_lists, weights, engine.n, target=user, kind=kind
        )
        return product, combined

    return produce


def check_experiment(
    recommenders: Sequence[RecommenderDef],
    task: str,
    *,
    knn_k: int,
    list_length: int,
    averaging: str,
) -> None:
    """Raise ValueError for any experiment setting run_experiment cannot honour.

    Unknown feature ids raise UnknownFeatureError, a ValueError. Explicit
    hybrid weights must name each component once and pass HybridWeights.
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
    names = [_display_id(rec) for rec in recommenders]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate recommender ids: {', '.join(duplicates)}")
    for rec in recommenders:
        for component in _component_ids(rec):
            if component != MOST_POPULAR_ID:
                parse_feature_id(component)
        if isinstance(rec, HybridDef):
            if not rec.components:
                raise ValueError(f"hybrid {rec.name!r} lists no components")
            if rec.weights is not None:
                if set(rec.weights) != set(rec.components):
                    raise ValueError(f"hybrid {rec.name!r} needs one weight per component")
                HybridWeights(rec.weights)


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
        lines.append(
            "\t".join(
                [
                    row.recommender,
                    _fmt(row.ndcg),
                    _fmt(row.precision),
                    _fmt(row.recall),
                    _fmt(row.diversity),
                    _fmt(row.coverage),
                ]
            )
        )
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
