"""Data model, file loading, and per-user entity sets for the three-source corpus.

A corpus combines marketplace data (products, purchases), social data
(interactions, group memberships, interest tags), and location data
(favored, shared, and monitored location records). All tables are loaded
from delimited text files with a header row and validated for referential
integrity; the loaded corpus is immutable.
"""

from __future__ import annotations

import csv
import dataclasses
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Optional

SOCIAL_KINDS = ("love", "comment", "wallpost")
LOCATION_KINDS = ("favored", "shared", "monitored")

# the entity kinds derived from purchase rows, so the only ones a train/test split changes
PURCHASE_KINDS = ("purchases", "sellers", "categories")
ENTITY_KINDS = (
    *PURCHASE_KINDS,
    "groups",
    "interests",
    "favored_locations",
    "shared_locations",
    "monitored_locations",
)

MAX_CATEGORY_DEPTH = 4

CORPUS_FILES = {
    "products": "products.csv",
    "purchases": "purchases.csv",
    "social": "social.csv",
    "groups": "groups.csv",
    "interests": "interests.csv",
    "locations": "locations.csv",
}

_HEADERS = {
    "products": ["product_id", "seller_id", "category_path"],
    "purchases": ["buyer_id", "product_id"],
    "social": ["actor_id", "target_id", "kind"],
    "groups": ["user_id", "group_id"],
    "interests": ["user_id", "interest_id"],
    "locations": ["user_id", "location_id", "kind", "event_id"],
}
# fields that may be empty, or whose values _ALLOWED names
_NOT_REQUIRED = ("category_path", "kind", "event_id")
# per table, the one field whose values are named, and those values; checked after the non-empty pass
_ALLOWED = {"social": ("kind", SOCIAL_KINDS), "locations": ("kind", LOCATION_KINDS)}


class CorpusError(Exception):
    """Base class for corpus loading and validation failures."""


class MalformedRowError(CorpusError):
    """A row does not conform to its file's schema."""

    def __init__(self, file: str, line: int, field: str, message: str):
        super().__init__(f"{file}:{line}: field '{field}': {message}")
        self.file = file
        self.line = line
        self.field = field


class DanglingReferenceError(CorpusError):
    """A row references an entity that does not exist."""

    def __init__(self, entity: str, message: str):
        super().__init__(message)
        self.entity = entity


class DuplicateProductError(CorpusError):
    """The same product id appears more than once in the product table."""

    def __init__(self, product_id: str, message: str):
        super().__init__(message)
        self.product_id = product_id


@dataclass(frozen=True, slots=True)
class Product:
    id: str
    seller: str
    category_path: tuple[str, ...]  # ordered top level -> low level, length <= 4


@dataclass(frozen=True, slots=True)
class Purchase:
    buyer: str
    product: str


@dataclass(frozen=True, slots=True)
class SocialInteraction:
    actor: str
    target: str
    kind: str  # love | comment | wallpost


@dataclass(frozen=True, slots=True)
class Membership:
    user: str
    group: str


@dataclass(frozen=True, slots=True)
class InterestTag:
    user: str
    interest: str


@dataclass(frozen=True, slots=True)
class LocationRecord:
    user: str
    location: str
    kind: str  # favored | shared | monitored
    event_key: Optional[str] = None  # set iff kind == "monitored"


@dataclass(frozen=True)
class Corpus:
    """Immutable, validated view over all six source tables.

    ``users`` is the user universe: every user id referenced anywhere.
    Users present in only some sources are legal; entity_sets() maps them
    to empty sets for the missing kinds.
    """

    products: Mapping[str, Product]
    purchases: tuple[Purchase, ...]
    social: tuple[SocialInteraction, ...]
    memberships: tuple[Membership, ...]
    interests: tuple[InterestTag, ...]
    locations: tuple[LocationRecord, ...]
    users: frozenset[str]


def top_level_category(product: Product) -> Optional[str]:
    """Highest-level category of a product, or None for uncategorized products."""
    return product.category_path[0] if product.category_path else None


def low_level_category(product: Product) -> Optional[str]:
    """Lowest-level category of a product, or None for uncategorized products."""
    return product.category_path[-1] if product.category_path else None


def load_corpus(data_dir: str | Path) -> Corpus:
    """Load and validate a corpus from a directory holding the CORPUS_FILES.

    Raises MalformedRowError, DanglingReferenceError, or DuplicateProductError
    on the first violation found. Loading is deterministic: identical files
    yield an identical corpus.
    """
    path = {key: Path(data_dir) / name for key, name in CORPUS_FILES.items()}
    product_table = _load_products(path["products"])
    purchase_rows = _load_purchases(path["purchases"], product_table)
    social_rows = _load_social(path["social"])
    membership_rows = _load_pairs(path["groups"], "groups", Membership)
    interest_rows = _load_pairs(path["interests"], "interests", InterestTag)
    location_rows = _load_locations(path["locations"])

    users = {row.user for rows in (membership_rows, interest_rows, location_rows) for row in rows}
    users.update(p.buyer for p in purchase_rows)
    users.update(chain.from_iterable((s.actor, s.target) for s in social_rows))

    return Corpus(
        products=product_table,
        purchases=tuple(purchase_rows),
        social=tuple(social_rows),
        memberships=tuple(membership_rows),
        interests=tuple(interest_rows),
        locations=tuple(location_rows),
        users=frozenset(users),
    )


def with_purchases(corpus: Corpus, purchases: Iterable[Purchase]) -> Corpus:
    """A corpus sharing every table except the purchase rows.

    The user universe is preserved so that users whose purchases were
    filtered out (for example by a train/test split) remain known.
    """
    return dataclasses.replace(corpus, purchases=tuple(purchases))


def entity_sets(corpus: Corpus, kind: str) -> dict[str, frozenset[str]]:
    """Per-user entity sets for one kind, covering every user in the universe.

    For kind "purchases" the set holds product ids bought by the user;
    "sellers" the sellers of those products; "categories" the union of all
    category path entries of purchased products. The remaining kinds come
    straight from their tables. Users without records map to the empty set.
    """
    if kind not in ENTITY_KINDS:
        raise ValueError(f"unknown entity kind: {kind!r}")
    acc: dict[str, set[str]] = {user: set() for user in corpus.users}
    if kind in PURCHASE_KINDS:
        for purchase in corpus.purchases:
            product = corpus.products[purchase.product]
            if kind == "purchases":
                acc[purchase.buyer].add(product.id)
            elif kind == "sellers":
                acc[purchase.buyer].add(product.seller)
            else:
                acc[purchase.buyer].update(product.category_path)
    elif kind == "groups":
        for membership in corpus.memberships:
            acc[membership.user].add(membership.group)
    elif kind == "interests":
        for tag in corpus.interests:
            acc[tag.user].add(tag.interest)
    else:
        location_kind = kind.removesuffix("_locations")
        for record in corpus.locations:
            if record.kind == location_kind:
                acc[record.user].add(record.location)
    return {user: frozenset(values) for user, values in acc.items()}


def _read_rows(path: str | Path, table: str):
    """Yield (file name, first physical line, row) for each data row, after checking the header.

    Fields are interned: an id repeats across rows and tables, and each
    repeat then shares one string object.
    """
    expected = _HEADERS[table]
    named, values = _ALLOWED.get(table, (expected[0], ()))
    at = expected.index(named)
    name = str(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read {name}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRowError(name, 1, expected[0], "missing header row")
        if header != expected:
            raise MalformedRowError(
                name, 1, expected[0], f"header must be {','.join(expected)}"
            )
        end = reader.line_num
        for row in reader:
            line, end = end + 1, reader.line_num
            if not row:
                continue  # blank line
            if len(row) != len(expected):
                raise MalformedRowError(
                    name, line, expected[0], f"expected {len(expected)} fields, got {len(row)}"
                )
            if not all(row):
                for field, value in zip(expected, row):
                    if not value and field not in _NOT_REQUIRED:
                        raise MalformedRowError(name, line, field, "must be non-empty")
            if values and row[at] not in values:
                raise MalformedRowError(name, line, named, f"must be one of {', '.join(values)}")
            yield name, line, list(map(sys.intern, row))


def _load_products(path) -> dict[str, Product]:
    table: dict[str, Product] = {}
    for name, line, (product_id, seller_id, raw_path) in _read_rows(path, "products"):
        if product_id in table:
            raise DuplicateProductError(
                product_id, f"{name}:{line}: duplicate product id {product_id!r}"
            )
        segments = tuple(map(sys.intern, raw_path.split("|"))) if raw_path else ()
        if any(not segment for segment in segments):
            raise MalformedRowError(name, line, "category_path", "empty path segment")
        if len(segments) > MAX_CATEGORY_DEPTH:
            raise MalformedRowError(
                name, line, "category_path",
                f"at most {MAX_CATEGORY_DEPTH} levels allowed, got {len(segments)}",
            )
        if len(set(segments)) != len(segments):
            raise MalformedRowError(
                name, line, "category_path", "path entries must be distinct"
            )
        table[product_id] = Product(product_id, seller_id, segments)
    return table


def _load_purchases(path, products: Mapping[str, Product]) -> list[Purchase]:
    rows = []
    for name, line, (buyer_id, product_id) in _read_rows(path, "purchases"):
        if product_id not in products:
            raise DanglingReferenceError(
                product_id,
                f"{name}:{line}: purchase references unknown product {product_id!r}",
            )
        rows.append(Purchase(buyer_id, product_id))
    return rows


def _load_social(path) -> list[SocialInteraction]:
    rows = []
    for name, line, (actor_id, target_id, kind) in _read_rows(path, "social"):
        if actor_id == target_id:
            raise MalformedRowError(name, line, "target_id", "actor and target must differ")
        rows.append(SocialInteraction(actor_id, target_id, kind))
    return rows


def _load_pairs(path, table: str, row_type):
    # (user, entity) pairs are deduplicated on load, keeping first occurrence order.
    pairs = dict.fromkeys(tuple(row) for _, _, row in _read_rows(path, table))
    return [row_type(user_id, entity_id) for user_id, entity_id in pairs]


def _load_locations(path) -> list[LocationRecord]:
    rows = []
    for name, line, (user_id, location_id, kind, event_id) in _read_rows(path, "locations"):
        if kind == "monitored" and not event_id:
            raise MalformedRowError(name, line, "event_id", "must be non-empty")
        if kind != "monitored" and event_id:
            raise MalformedRowError(name, line, "event_id", f"must be empty for kind {kind!r}")
        rows.append(LocationRecord(user_id, location_id, kind, event_id or None))
    return rows
