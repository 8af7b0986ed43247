"""Multi-source hybrid recommender engine with an offline evaluation harness.

Builds user-user similarity features over marketplace, social, and location
data, serves top-N product and category recommendations via user-based
collaborative filtering and weighted-sum hybrids, and evaluates them with a
withhold-10 protocol (nDCG, precision, recall, diversity, user coverage).
"""

from .corpus import (
    Corpus,
    CorpusError,
    DanglingReferenceError,
    DuplicateProductError,
    EntityProfile,
    InterestTag,
    LocationRecord,
    MalformedRowError,
    Membership,
    Product,
    Purchase,
    SocialInteraction,
    build_entity_profiles,
    entity_sets,
    load_corpus,
    load_corpus_paths,
    low_level_category,
    top_level_category,
    with_purchases,
)
from .graphs import InteractionGraph, build_colocation_graph, build_social_graph, neighbors
from .simfeatures import (
    ALL_FEATURE_IDS,
    FeatureSpec,
    SimilarityContext,
    SimilarityMatrixSlice,
    UnknownFeatureError,
    UnknownUserError,
    adamic_adar,
    common_entities,
    common_neighbors,
    directed_interactions,
    jaccard_entities,
    jaccard_neighbors,
    neighborhood_overlap,
    parse_feature_id,
    preferential_attachment,
    total_entities,
)
from .recommender import (
    HybridWeights,
    RecommendationList,
    cf_categories,
    cf_products,
    derive_hybrid_weights,
    most_popular,
    normalize_scores,
    weighted_sum_hybrid,
)
from .evalharness import (
    EvalReport,
    HybridDef,
    Split,
    category_distance,
    diversity_at_k,
    make_split,
    make_weighting_split,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    run_experiment,
    user_coverage,
    write_report,
)
from .synth import SyntheticSpec, generate

__version__ = "0.1.0"
