import dataclasses

import pytest

from marketrec.corpus import (
    ENTITY_KINDS,
    CorpusError,
    DanglingReferenceError,
    DuplicateProductError,
    MalformedRowError,
    Product,
    entity_sets,
    load_corpus,
    low_level_category,
    top_level_category,
    with_purchases,
)
from marketrec.simfeatures import SimilarityContext

from helpers import write_corpus_files


PRODUCTS = [
    ("p1", "s1", "A|B"),
    ("p2", "s1", "A|C"),
    ("p3", "s2", ""),
    ("p4", "s2", "D"),
]


def _write(tmp_path, **overrides):
    tables = dict(
        products=PRODUCTS,
        purchases=[("u1", "p1"), ("u1", "p1"), ("u1", "p2"), ("u2", "p3")],
        social=[("u1", "u2", "love"), ("u2", "u1", "comment")],
        groups=[("u1", "g1"), ("u1", "g1"), ("u2", "g2")],
        interests=[("u1", "i1")],
        locations=[
            ("u1", "l1", "favored", ""),
            ("u1", "l2", "shared", ""),
            ("u2", "l3", "monitored", "e1"),
        ],
    )
    tables.update(overrides)
    return write_corpus_files(tmp_path, **tables)


def test_load_small_corpus(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    assert len(corpus.products) == 4
    assert len(corpus.purchases) == 4  # duplicate purchase rows are retained
    assert len(corpus.social) == 2
    assert len(corpus.memberships) == 2  # (u1, g1) deduplicated
    assert len(corpus.interests) == 1
    assert len(corpus.locations) == 3
    assert corpus.users == {"u1", "u2"}
    assert corpus.products["p1"].category_path == ("A", "B")
    assert corpus.products["p3"].category_path == ()


def test_empty_purchase_file_is_valid(tmp_path):
    corpus = load_corpus(_write(tmp_path, purchases=[]))
    assert corpus.purchases == ()
    assert len(corpus.products) == 4


def test_dangling_purchase_names_product(tmp_path):
    path = _write(tmp_path, purchases=[("u1", "p999")])
    with pytest.raises(DanglingReferenceError) as excinfo:
        load_corpus(path)
    assert excinfo.value.entity == "p999"
    assert "p999" in str(excinfo.value)


def test_duplicate_product_id(tmp_path):
    path = _write(tmp_path, products=PRODUCTS + [("p1", "s9", "")])
    with pytest.raises(DuplicateProductError) as excinfo:
        load_corpus(path)
    assert excinfo.value.product_id == "p1"


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(social=[("u1", "u1", "love")]), "target_id"),
        (dict(social=[("u1", "u2", "hug")]), "kind"),
        (dict(products=[("p1", "s1", "A|B|C|D|E")]), "category_path"),
        (dict(products=[("p1", "s1", "A|A")]), "category_path"),
        (dict(products=[("p1", "s1", "A||B")]), "category_path"),
        (dict(products=[("", "s1", "A")]), "product_id"),
        (dict(purchases=[("u1", "p1", "extra")]), "buyer_id"),
        (dict(locations=[("u1", "l1", "monitored", "")]), "event_id"),
        (dict(locations=[("u1", "l1", "favored", "e1")]), "event_id"),
        (dict(locations=[("u1", "l1", "visited", "")]), "kind"),
    ],
)
def test_malformed_rows(tmp_path, overrides, field):
    path = _write(tmp_path, **overrides)
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path)
    assert excinfo.value.field == field
    assert excinfo.value.line >= 1


_BAD_ROWS = [
    ("products", ("", "s1", "A"), "product_id"),
    ("products", ("p9", "", "A"), "seller_id"),
    ("products", ("p9", "s1"), "product_id"),
    ("products", ("p9", "s1", "A||B"), "category_path"),
    ("products", ("p9", "s1", "A|B|C|D|E"), "category_path"),
    ("products", ("p9", "s1", "A|A"), "category_path"),
    ("purchases", ("", "p1"), "buyer_id"),
    ("purchases", ("u1", ""), "product_id"),
    ("social", ("", "u2", "love"), "actor_id"),
    ("social", ("u1", "", "love"), "target_id"),
    ("social", ("u1", "u2", ""), "kind"),
    ("social", ("u1", "u2", "hug"), "kind"),
    ("social", ("u1", "u1", "love"), "target_id"),
    ("groups", ("", "g1"), "user_id"),
    ("groups", ("u1", ""), "group_id"),
    ("interests", ("", "i1"), "user_id"),
    ("interests", ("u1", ""), "interest_id"),
    ("locations", ("", "l1", "favored", ""), "user_id"),
    ("locations", ("u1", "", "favored", ""), "location_id"),
    ("locations", ("u1", "l1", "", ""), "kind"),
    ("locations", ("u1", "l1", "monitored", ""), "event_id"),
    ("locations", ("u1", "l1", "shared", "e1"), "event_id"),
]


_GOOD_ROWS = {
    "products": ("p1", "s1", "A"),
    "purchases": ("u1", "p1"),
    "social": ("u1", "u2", "love"),
    "groups": ("u1", "g1"),
    "interests": ("u1", "i1"),
    "locations": ("u1", "l1", "monitored", "e1"),
}


@pytest.mark.parametrize("table, bad_row, field", _BAD_ROWS)
def test_every_loader_error_names_file_line_and_field(tmp_path, table, bad_row, field):
    path = _write(tmp_path, **{table: [_GOOD_ROWS[table], bad_row]})
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path)
    error, file = excinfo.value, str(path / f"{table}.csv")
    assert (error.file, error.line, error.field) == (file, 3, field)  # the header is line 1
    assert str(error).startswith(f"{file}:3: field '{field}': ")


_SOCIAL_KIND = "must be one of love, comment, wallpost"
_LOCATION_KIND = "must be one of favored, shared, monitored"


@pytest.mark.parametrize(
    "table, bad_row, field, message",
    [
        ("social", ("u1", "u2", ""), "kind", _SOCIAL_KIND),
        ("social", ("u1", "u2", "hug"), "kind", _SOCIAL_KIND),
        ("social", ("", "u2", "hug"), "actor_id", "must be non-empty"),  # the first faulty field
        ("locations", ("u1", "l1", "", ""), "kind", _LOCATION_KIND),
        ("locations", ("u1", "l1", "visited", ""), "kind", _LOCATION_KIND),
    ],
)
def test_allowed_value_errors_give_the_full_message(tmp_path, table, bad_row, field, message):
    # The first record spans lines 2-3 through a quoted id, so the bad row starts on line 4.
    good = ('"u\n1"', *_GOOD_ROWS[table][1:])
    path = _write(tmp_path, **{table: [good, bad_row]})
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path)
    error, file = excinfo.value, str(path / f"{table}.csv")
    assert (error.file, error.line, error.field) == (file, 4, field)
    assert str(error) == f"{file}:4: field '{field}': {message}"


def test_loader_error_names_the_physical_line(tmp_path):
    # The first record spans lines 2-3 through a quoted id, so the bad row starts on line 4.
    path = _write(tmp_path, products=[('"p\n1"', "s1", "A"), ("p9", "s1", "A||B")])
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path)
    assert (excinfo.value.line, excinfo.value.field) == (4, "category_path")


def test_ids_are_one_object_across_tables(tmp_path):
    """Fields are interned on load, so each repeat of an id shares one string."""
    corpus = load_corpus(_write(tmp_path))
    buyer = next(p.buyer for p in corpus.purchases if p.buyer == "u2")
    actor = next(s.actor for s in corpus.social if s.actor == "u2")
    attendee = next(r.user for r in corpus.locations if r.user == "u2")
    assert buyer is actor is attendee
    assert corpus.purchases[0].product is corpus.products["p1"].id
    assert corpus.products["p1"].category_path[0] is corpus.products["p2"].category_path[0]


def test_records_have_no_instance_dict(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    tables = (corpus.purchases, corpus.social, corpus.memberships, corpus.interests, corpus.locations)
    for record in (corpus.products["p1"], *(rows[0] for rows in tables)):
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(dataclasses.FrozenInstanceError):
        corpus.purchases[0].buyer = "u9"


def test_corpus_replace_shares_other_tables(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    wider = dataclasses.replace(corpus, users=corpus.users | {"u9"})
    assert wider.users == {"u1", "u2", "u9"}
    assert wider.social is corpus.social and wider.products is corpus.products
    assert entity_sets(wider, "groups")["u9"] == frozenset()


def test_bad_header_rejected(tmp_path):
    path = _write(tmp_path)
    (path / "purchases.csv").write_text("user,item\nu1,p1\n", encoding="utf-8")
    with pytest.raises(MalformedRowError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line == 1


def test_missing_file(tmp_path):
    path = _write(tmp_path)
    (path / "social.csv").unlink()
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_purchase_profile_dedupes(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    sets = entity_sets(corpus, "purchases")
    assert sets == {"u1": {"p1", "p2"}, "u2": {"p3"}}
    assert all(isinstance(values, frozenset) for values in sets.values())


def test_seller_and_category_profiles(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    assert entity_sets(corpus, "sellers")["u1"] == {"s1"}
    # categories union over full paths: [A,B] and [A,C] -> {A, B, C}
    assert entity_sets(corpus, "categories")["u1"] == {"A", "B", "C"}
    assert entity_sets(corpus, "categories")["u2"] == set()


def test_profiles_cover_users_without_records(tmp_path):
    corpus = load_corpus(_write(tmp_path, interests=[]))
    sets = entity_sets(corpus, "interests")
    assert sets == {"u1": frozenset(), "u2": frozenset()}


def test_location_profiles_by_kind(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    assert entity_sets(corpus, "favored_locations")["u1"] == {"l1"}
    assert entity_sets(corpus, "shared_locations")["u1"] == {"l2"}
    assert entity_sets(corpus, "monitored_locations")["u2"] == {"l3"}


def test_unknown_entity_kind_rejected(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    with pytest.raises(ValueError):
        entity_sets(corpus, "colours")


@pytest.mark.parametrize(
    "path, top, low",
    [(("A", "B", "C"), "A", "C"), (("A",), "A", "A"), ((), None, None)],
)
def test_category_extraction(path, top, low):
    product = Product("p", "s", path)
    assert top_level_category(product) == top
    assert low_level_category(product) == low


def test_top_equals_low_iff_short_path():
    for path in [(), ("A",), ("A", "B"), ("A", "B", "C"), ("A", "B", "C", "D")]:
        product = Product("p", "s", path)
        same = top_level_category(product) == low_level_category(product)
        assert same == (len(path) <= 1)


def test_profile_closure(small_corpus):
    purchases = entity_sets(small_corpus, "purchases")
    sellers = entity_sets(small_corpus, "sellers")
    categories = entity_sets(small_corpus, "categories")
    for purchase in small_corpus.purchases:
        product = small_corpus.products[purchase.product]
        assert product.id in purchases[purchase.buyer]
        assert product.seller in sellers[purchase.buyer]
        for category in product.category_path:
            assert category in categories[purchase.buyer]


def test_load_is_deterministic(tmp_path):
    path = _write(tmp_path)
    first = load_corpus(path)
    second = load_corpus(path)
    assert first.purchases == second.purchases
    assert first.products == second.products
    for kind in ("purchases", "sellers", "categories", "groups"):
        assert entity_sets(first, kind) == entity_sets(second, kind)
    context = SimilarityContext(first)
    for kind in ENTITY_KINDS:  # the context's mappings hold the same sets
        assert context.entity_sets(kind) == entity_sets(first, kind)


def test_with_purchases_keeps_universe(tmp_path):
    corpus = load_corpus(_write(tmp_path))
    trimmed = with_purchases(corpus, [])
    assert trimmed.users == corpus.users
    assert trimmed.purchases == ()
    assert trimmed.products is corpus.products
    assert entity_sets(trimmed, "purchases")["u1"] == set()


def test_synthetic_counts_match_manifest(small_corpus, small_dataset):
    _, manifest = small_dataset
    counts = manifest["counts"]
    assert counts["purchases"] == 200  # 50 users x 4 rows
    assert len(small_corpus.products) == counts["products"]
    assert len(small_corpus.purchases) == counts["purchases"]
    assert len(small_corpus.social) == counts["social"]
    assert len(small_corpus.memberships) == counts["groups"]
    assert len(small_corpus.interests) == counts["interests"]
    assert len(small_corpus.locations) == counts["locations"]
    assert len(small_corpus.users) == manifest["spec"]["users"]
