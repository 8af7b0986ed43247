import hashlib
import json

import pytest

from conftest import PLANTED_SPEC
from marketrec.corpus import CORPUS_FILES, load_corpus
from marketrec.evalharness import make_split, run_experiment
from marketrec.simfeatures import SimilarityContext
from marketrec.recommender import cf_products
from marketrec.synth import SyntheticSpec, generate


def _row_count(path):
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1  # minus header


def test_manifest_counts_match_files(small_dataset):
    directory, manifest = small_dataset
    for table, filename in manifest["files"].items():
        assert manifest["counts"][table] == _row_count(directory / filename)


def test_manifest_written_to_disk(small_dataset):
    directory, manifest = small_dataset
    on_disk = json.loads((directory / "manifest.json").read_text())
    assert on_disk == manifest


@pytest.mark.parametrize(
    "spec",
    [
        SyntheticSpec(users=12, clusters=3, noise=0.0, seed=1),
        SyntheticSpec(users=30, clusters=6, noise=1.0, seed=2, purchases_per_user=5),
        SyntheticSpec(users=8, clusters=1, noise=0.5, seed=3),
        SyntheticSpec(users=25, clusters=5, noise=0.2, seed=4, events_per_user=1),
    ],
)
def test_generated_datasets_pass_validation(tmp_path, spec):
    manifest = generate(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    assert len(corpus.users) == spec.users
    assert len(corpus.purchases) == manifest["counts"]["purchases"]


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        SyntheticSpec(noise=1.5).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(noise=-0.1).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(users=3, clusters=5).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(purchases_per_user=0).validate()
    SyntheticSpec().validate()


def test_zero_noise_keeps_social_edges_within_cluster(tmp_path):
    spec = SyntheticSpec(users=50, clusters=5, noise=0.0, seed=9)
    manifest = generate(spec, tmp_path)
    clusters = manifest["user_clusters"]
    corpus = load_corpus(tmp_path)
    assert corpus.social
    for interaction in corpus.social:
        assert clusters[interaction.actor] == clusters[interaction.target]
    for purchase in corpus.purchases:
        assert clusters[purchase.buyer] == manifest["product_clusters"][purchase.product]


def test_generation_is_deterministic(tmp_path):
    spec = SyntheticSpec(users=20, clusters=4, noise=0.3, seed=21)
    first = tmp_path / "first"
    second = tmp_path / "second"
    generate(spec, first)
    generate(spec, second)
    for name in sorted(p.name for p in first.iterdir()):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_zero_noise_cf_prefers_within_cluster_products(tmp_path):
    spec = SyntheticSpec(users=40, clusters=4, noise=0.0, seed=13)
    manifest = generate(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    clusters = manifest["user_clusters"]
    product_clusters = manifest["product_clusters"]
    context = SimilarityContext(corpus)
    purchase_sets = context.entity_sets("purchases")
    within_rr = []
    cross_rr = []
    for user in sorted(corpus.users):
        slice_ = context.k_nearest("sn.graph.cn", user, 10)
        items = cf_products(slice_, purchase_sets, 10).item_ids()
        within = next(
            (1 / (i + 1) for i, p in enumerate(items) if product_clusters[p] == clusters[user]),
            0.0,
        )
        cross = next(
            (1 / (i + 1) for i, p in enumerate(items) if product_clusters[p] != clusters[user]),
            0.0,
        )
        within_rr.append(within)
        cross_rr.append(cross)
    assert sum(within_rr) / len(within_rr) > sum(cross_rr) / len(cross_rr)
    # with zero noise, neighbours only own same-cluster products
    assert sum(cross_rr) == 0.0


def test_zero_noise_social_cf_beats_popularity(tmp_path):
    spec = SyntheticSpec(users=60, clusters=5, noise=0.0, seed=17)
    generate(spec, tmp_path)
    corpus = load_corpus(tmp_path)
    split = make_split(corpus, seed=1)
    assert split.eligible
    report = run_experiment(corpus, split, ["sn.graph.no", "most_popular"], "products")
    by_name = {row.recommender: row for row in report.rows}
    assert by_name["sn.graph.no"].ndcg > by_name["most_popular"].ndcg


# sha256 of each corpus file, and of the manifest without "spec" re-serialised
# as generate writes it. The digests are constants, so they also fail when the
# output depends on the process hash seed.
PINNED_DIGESTS = [
    (
        PLANTED_SPEC,
        {
            "products": "d64dbdb6ec44cd8ee6b9e2362b19a4e61de8af9f3e1846d4d53095b48292defd",
            "purchases": "e71bc9c28fa842d9cbf065651a979dface8e13e51d70d45229a8894ac0b9f8bd",
            "social": "44e882dd8c2dbee532da265faf6f78d2c719c2c755f47842f7dbe43bc2b23398",
            "groups": "e0734d506ac6303bd480e7abef97acca2736b8d76247c0cd440c9d80b7455a6a",
            "interests": "98c423ebe53b0f8e4800d3cb5c7ca94b6e00833ad61ec151b9c72d581be884da",
            "locations": "6c3b78b7361e3a132e6b02a6aeca3a15188f431f356f767d336dcf6a42c5aee8",
            "manifest": "15f6cdad965380ee693c15d6ea3191c60048c3158e6ce701c41c6cdb13e0f1e0",
        },
    ),
    (
        SyntheticSpec(users=50, clusters=5, noise=0.1, seed=5, purchases_per_user=4),
        {
            "products": "4a12482f6e5db4f7e4abf258ce4566014dc03c9c029995b81dec2d88cf0de4a2",
            "purchases": "7aa2e65e362d9a607be54ede9884545cba77394f89f8290e87c258e40ab760bb",
            "social": "27a48094ab62ad7edb5f9a01e128d534133ec92838637284f57bce6e74495fab",
            "groups": "f5fe028eaf4d7147c3582073cf3e887a36cad2f55e087de464a522c13ec810e8",
            "interests": "1543da1af704b4e3ac5d8be4f14b11069be6e73d32cf9682bd35383bc4a394ed",
            "locations": "c11e6724dcc2b0979db7dd5944b5f372db0bbf0500ea4c8bb3f2e6918078c6b7",
            "manifest": "b33f5084e1906d354714ba50699d566370b232ae42091861f2323461325c0969",
        },
    ),
    (
        SyntheticSpec(users=30, clusters=6, noise=1.0, seed=2, purchases_per_user=5),
        {
            "products": "97bc3f4b120367f5f95447e612a2fe283854a1d66aca769c61deb078c2f48040",
            "purchases": "d2f5aea092b0bf8687618f1174762b672bc6ec52f560176b00c13cce7aa73c2b",
            "social": "4dbb295f3aa458266f653eaa2c3a9d8f8cdb2fa8525afa566815464fc20b3b36",
            "groups": "7ab1d9196e1ceb6aaf47e0fb66720a54e6e1085fc4341b46c9ad9b9d57398a01",
            "interests": "b165bbfcd2fd45844e7f01b647cd649ffb358c03c60363547ffbcb1260a41d6d",
            "locations": "d89eb0672bd1ef5323382c3e62a63602b44dd9395cfa4b8d2e688283a55dec60",
            "manifest": "508dbcfc68b20643848d24b71b5af26b9067d4fb97de9a7ebe630a64996e73ff",
        },
    ),
    (
        SyntheticSpec(users=8, clusters=1, noise=0.5, seed=3),
        {
            "products": "88d441d525348d99a0a409cb3e47e7c28bc024070433f691fca442d514bce924",
            "purchases": "1380a7aed7c9926bd2cb67c098c4eeffe81c7ec43a199271dd9a0a1f9ce9206a",
            "social": "6aeeff0be9356e52cdb7ade325931da593495b71426cf7a7d896b36beb24b552",
            "groups": "eb85ec531ad489ac1126c095b6f7f29fb16ee20aed886aad09400f13afacdd57",
            "interests": "5e4fc429a40076d85d0a41aa1010f6a7aa891cab91d6e3b5b8c1e3bd42a47f40",
            "locations": "3a0e0d1ba1f65d08db1494ebcf74348fc2a761bd83845c2ffdd14f3a9de0e375",
            "manifest": "53bbc0a1aa0d2bdd353cb6c50307b324875b38649668c1e12d9a57ebb0fcff83",
        },
    ),
    (
        SyntheticSpec(users=25, clusters=5, noise=0.2, seed=4, events_per_user=1),
        {
            "products": "a50ff91f24459cd6b98a4f72b172b22cde893abf81a31047209e576226e1fa88",
            "purchases": "ec0a19eca6c7e0601e23c920514aca3157ac7228ae208e1125cd7b8e73e349d3",
            "social": "6a4d26fb677be59ad0b1009980cc684bba35a8bd32366bf8a48f1fc13e702ec2",
            "groups": "4922007378f777aca94a013d906a937192069ab5974ea3cdcc440b5faed49143",
            "interests": "c6db230b196c2aecc62ec1fcc89498cb18392a307e9d1f1952f9d1d7dbe75928",
            "locations": "b90faf4a21838c6283f418790dfb875bf890f9cb57470f477deac65a6e99985f",
            "manifest": "709bc2bd2072dd4f22a8feecc1308b79d4b4d007bf0c8453ede022de8c92a01f",
        },
    ),
    (
        SyntheticSpec(users=1000, clusters=20, noise=0.1, seed=1),
        {
            "products": "c86ec61213356fa33514ada3a93a6109b46f3c9fef6c1a3cb73ee729a68ca240",
            "purchases": "1ac859bed83c412c89bf1dacd768306cb5b8a3b0c560e08c31389ce91d99c361",
            "social": "097355c6ee10847bae962043e7918b6d35f6e85b5e11104c7e019c5f96848fd4",
            "groups": "ec2cdbf08863dcdbdb117075a2557eed8c4747f2e1bc5b1b4a8211acca78d777",
            "interests": "16eb53f02154f80da664075ebf3bc4f25fc4677dcec4544a4c1cd83892ac04c8",
            "locations": "9b027c33431f64e735f847da2a81f718c512d69ba5728baee0ccfa81a390b6d1",
            "manifest": "095d3754e971faa1a5690caef3f056843bb01504bd3717e754f972467a884bcd",
        },
    ),
]


@pytest.mark.parametrize("spec, digests", PINNED_DIGESTS)
def test_generated_bytes_are_pinned(tmp_path, spec, digests):
    manifest = generate(spec, tmp_path)
    actual = {
        table: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for table, filename in CORPUS_FILES.items()
    }
    del manifest["spec"]
    actual["manifest"] = hashlib.sha256(
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    ).hexdigest()
    assert actual == digests
