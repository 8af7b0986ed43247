"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps public entry points of each marketrec module from outside the
package. Each function is patched under the name its caller looks up:
``evalharness`` binds the recommender functions with ``from .recommender
import ...`` and ``simfeatures`` binds the graph builders and ``entity_sets``
the same way, so patching only the defining module would record nothing from
``run_experiment``. Functions called once per scored pair
(``SimilarityContext.score``, ``category_distance``) are not wrapped; their
counts are derived from the arguments of the enclosing call instead.

Times are self times: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Feature-id suffix -> k-NN family, for the network selector "graph".
_NETWORK_FAMILY = {
    "cn": "two_hop",
    "jaccard": "two_hop",
    "aa": "two_hop",
    "no": "two_hop",
    "pa": "pa",
    "directed": "directed",
}
KNN_FAMILIES = ("content", "total", "two_hop", "pa", "directed")


def knn_family(feature) -> str:
    feature_id = feature if isinstance(feature, str) else feature.feature_id
    _, selector, suffix = feature_id.split(".")
    if selector == "graph":
        return _NETWORK_FAMILY[suffix]
    return "total" if suffix == "total" else "content"


class Tracer:
    """Collects self time per span key and work counters while installed."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.graphs: dict[str, object] = {}  # last graph built per kind
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Return and reset the times and counts recorded so far."""
        seconds, counts = dict(self.seconds), dict(self.counts)
        self.seconds.clear()
        self.counts.clear()
        return seconds, counts

    def install(self) -> None:
        from marketrec import corpus, evalharness, recommender, simfeatures

        def count(key):
            def after(args, kwargs, result):
                self.counts[key] += 1

            return after

        def graph_built(kind):
            def after(args, kwargs, result):
                self.counts["graphs.builds"] += 1
                self.graphs[kind] = result

            return after

        def knn_done(args, kwargs, result):
            self.counts["simfeatures.knn_calls"] += 1
            self.counts["simfeatures.neighbours_returned"] += len(result)
            if len(result) == 0:
                self.counts["simfeatures.empty_slices"] += 1

        def pool_counted(args, kwargs, result):
            self.counts["recommender.cf_pool_items"] += len(result)

        def distances_counted(args, kwargs, result):
            recommended = args[0]
            k = args[2] if len(args) > 2 else kwargs.get("k")
            m = len(recommended[:k]) if k is not None else len(recommended)
            self.counts["evalharness.distance_calls"] += m * (m - 1) if m >= 2 else 0

        def knn_key(args, kwargs):
            feature = args[1] if len(args) > 1 else kwargs["feature"]
            return "simfeatures.knn." + knn_family(feature)

        timed = [
            (corpus, "load_corpus", "corpus.load", None),
            (simfeatures, "entity_sets", "corpus.entity_sets", count("corpus.entity_sets_calls")),
            (simfeatures, "build_social_graph", "graphs.social_build", graph_built("social")),
            (simfeatures, "build_colocation_graph", "graphs.colocation_build", graph_built("colocation")),
            (simfeatures.SimilarityContext, "k_nearest", knn_key, knn_done),
            (recommender, "cf_products", "recommender.cf", count("recommender.cf_calls")),
            (evalharness, "cf_products", "recommender.cf", count("recommender.cf_calls")),
            (evalharness, "cf_categories", "recommender.cf", count("recommender.cf_calls")),
            (evalharness, "most_popular", "recommender.popular", None),
            (evalharness, "popularity_counts", "recommender.popular", None),
            (evalharness, "normalize_scores", "recommender.hybrid", None),
            (evalharness, "weighted_sum_hybrid", "recommender.hybrid", None),
            (evalharness, "make_split", "evalharness.split", None),
            (evalharness, "make_weighting_split", "evalharness.split", None),
            (evalharness, "ndcg_at_k", "evalharness.metric", count("evalharness.metric_calls")),
            (evalharness, "recall_at_k", "evalharness.metric", count("evalharness.metric_calls")),
            (evalharness, "precision_at_k", "evalharness.metric", count("evalharness.metric_calls")),
            (evalharness, "diversity_at_k", "evalharness.diversity", distances_counted),
            (evalharness, "run_experiment", "evalharness.self", None),
        ]
        for owner, name, key, after in timed:
            self._patch(owner, name, self._timed(key, vars(owner)[name], after))
        # counted, not timed: its time belongs to the enclosing cf span
        original = vars(recommender)["cf_candidate_scores"]
        self._patch(recommender, "cf_candidate_scores", _counted(original, pool_counted))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, replacement) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _timed(self, key, fn, after):
        stack, seconds = self._stack, self.seconds
        key_of = key if callable(key) else None

        def wrapper(*args, **kwargs):
            span = key_of(args, kwargs) if key_of else key
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                seconds[span] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper


def _counted(fn, after):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return wrapper


def two_hop_fanout_mean(graphs) -> float:
    """Mean number of two-hop paths from a non-isolated vertex, over the given graphs.

    For vertex u this is the sum of deg(z) over the neighbours z of u: the
    number of candidate visits a two-hop k-NN pass makes for target u.
    """
    paths = vertices = 0
    for graph in graphs:
        for user in graph.vertices:
            neighbours = graph.neighbors(user)
            if neighbours:
                vertices += 1
                paths += sum(graph.degree(z) for z in neighbours)
    return paths / vertices if vertices else 0.0


def graph_shape(graph) -> tuple[int, int]:
    """(edge count, max degree) from the adjacency alone; (0, 0) for a graph never built."""
    if graph is None:
        return 0, 0
    degrees = [graph.degree(user) for user in graph.vertices]
    return sum(degrees) // 2, max(degrees, default=0)
