"""The nine user-user similarity features on a small worked example.

Three content features compare entity sets; six network features read the
interaction graph structure. A SimilarityContext scores every feature through
k-nearest-neighbour selection: the score of a pair (u, v) is v's similarity in
u's neighbourhood, or 0 when v is not in it.
"""

from marketrec import SimilarityContext
from marketrec.corpus import Corpus, Product, Purchase, SocialInteraction

# a tiny corpus: u1 and u2 share purchases, u1..u3 interact socially
products = {p: Product(p, "s1", ("cat",)) for p in ("p1", "p2", "p3")}
corpus = Corpus(
    products=products,
    purchases=(
        Purchase("u1", "p1"), Purchase("u1", "p2"),
        Purchase("u2", "p1"), Purchase("u2", "p2"), Purchase("u2", "p3"),
        Purchase("u3", "p3"),
    ),
    social=(
        SocialInteraction("u1", "u2", "love"),
        SocialInteraction("u2", "u1", "comment"),
        SocialInteraction("u2", "u3", "wallpost"),
        SocialInteraction("u3", "u1", "love"),
    ),
    memberships=(), interests=(), locations=(),
    users=frozenset({"u1", "u2", "u3"}),
)
context = SimilarityContext(corpus)


def pair_score(feature_id, u, v):
    """v's similarity in u's full neighbourhood under one feature."""
    neighbourhood = context.k_nearest(feature_id, u, k=len(corpus.users))
    return dict(neighbourhood.scored).get(v, 0.0)


print("content features on the purchase sets u1 {p1,p2} and u2 {p1,p2,p3}:")
for suffix in ("common", "total", "jaccard"):
    print(f"  {suffix:7s} = {pair_score(f'mp.purchases.{suffix}', 'u1', 'u2'):.3f}")

print("\nnetwork features on the u1/u2 pair:")
for suffix, name in (
    ("directed", "directed interactions"),
    ("cn", "common neighbours"),
    ("jaccard", "neighbour jaccard"),
    ("aa", "adamic/adar"),
    ("no", "neighbourhood overlap"),
    ("pa", "pref. attachment"),
):
    print(f"  {name:22s} = {pair_score(f'sn.graph.{suffix}', 'u1', 'u2'):.3f}")

# every feature is addressable by a dotted id for neighbourhood construction
for feature_id in ("mp.purchases.jaccard", "sn.graph.cn", "sn.graph.directed"):
    slice_ = context.k_nearest(feature_id, "u1", k=5)
    pretty = ", ".join(f"{u}={s:.3f}" for u, s in slice_.scored)
    print(f"\nk-nearest for u1 under {feature_id}: {pretty}")
