"""Loading a three-source corpus and reading per-user entity sets.

Generates a small synthetic dataset, loads it back through the validating
loader, and walks through the per-user entity sets that all content
similarity features are built on.
"""

import tempfile

from marketrec import entity_sets, load_corpus, low_level_category, top_level_category
from marketrec.synth import SyntheticSpec, generate

spec = SyntheticSpec(users=20, clusters=4, noise=0.1, seed=1)
with tempfile.TemporaryDirectory(prefix="marketrec-demo-") as workdir:
    manifest = generate(spec, workdir)
    print(f"dataset written to {workdir}")
    print(f"row counts: {manifest['counts']}")
    corpus = load_corpus(workdir)
print(f"\nloaded {len(corpus.users)} users, {len(corpus.products)} products")

# An entity set is the deduplicated set of entities of one kind for one user.
user = sorted(corpus.users)[0]
for kind in ("purchases", "sellers", "categories", "groups", "favored_locations"):
    entities = entity_sets(corpus, kind)[user]
    shown = ", ".join(sorted(entities)[:6])
    print(f"{user} {kind:18s} ({len(entities):2d}): {shown}")

# Category paths are ordered from the top of the hierarchy to the bottom.
print("\nsample products:")
for product in list(corpus.products.values())[:5]:
    print(
        f"  {product.id}: path={'|'.join(product.category_path) or '(uncategorized)'}"
        f" top={top_level_category(product)} low={low_level_category(product)}"
    )
