"""Product and category recommendation, and combining recommenders.

Shows the popularity baseline, user-based CF from one similarity feature,
category prediction on top of CF candidates, and the weighted-sum hybrid of
normalized component lists.
"""

import tempfile

from marketrec import (
    SimilarityContext,
    cf_categories,
    cf_products,
    load_corpus,
    most_popular,
    normalize_scores,
    weighted_sum_hybrid,
)
from marketrec.synth import SyntheticSpec, generate

with tempfile.TemporaryDirectory(prefix="marketrec-demo-") as workdir:
    generate(SyntheticSpec(users=40, clusters=4, noise=0.1, seed=2), workdir)
    corpus = load_corpus(workdir)
context = SimilarityContext(corpus)
purchase_sets = context.entity_sets("purchases")

user = sorted(corpus.users)[0]
print(f"recommendations for {user}\n")

baseline = most_popular(corpus, "product", 5, owned=purchase_sets[user], target=user)
print("most popular (minus own purchases):")
for item, score in baseline.items:
    print(f"  {item}  bought {score:.0f} times")

slice_ = context.k_nearest("sn.graph.no", user, k=10)
print(f"\nnearest neighbours under sn.graph.no: {', '.join(slice_.users()[:5])} ...")

cf = cf_products(slice_, purchase_sets, 5)
print("user-based CF products (score = summed neighbour similarity):")
for item, score in cf.items:
    print(f"  {item}  {score:.3f}")

for kind in ("top_category", "low_category"):
    cats = cf_categories(slice_, corpus, purchase_sets, kind, 3)
    pretty = ", ".join(f"{c}={s:.2f}" for c, s in cats.items)
    print(f"{kind} list from the CF candidate pool: {pretty}")

# hybrid: normalize each component list, then weight and sum per item
components = {
    "most_popular": normalize_scores(baseline),
    "sn.graph.no": normalize_scores(cf),
}
weights = {"most_popular": 0.1, "sn.graph.no": 0.9}
combined = weighted_sum_hybrid(components, weights, 5, target=user, kind="product")
print("\nweighted-sum hybrid of both lists:")
for item, score in combined.items:
    print(f"  {item}  {score:.3f}")
