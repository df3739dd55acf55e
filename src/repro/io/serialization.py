"""JSON-friendly serialisation of the core objects and experiment results.

Everything returned here is built from plain dictionaries, lists, strings and
numbers so it can be fed directly to :func:`json.dump` (and symmetric loaders
rebuild the objects).  Experiment result records also pass through
:func:`to_jsonable` so numpy scalars and arrays never leak into output files.

:func:`cut_orders` and :func:`parse_orders` are the array path of a JSON
request body: the ``rankings.orders`` array is cut out of the raw bytes,
the rest is decoded with :func:`json.loads`, and the cut is parsed with
numpy straight into the order matrix, under a strict grammar.  A body that
either function declines is decoded whole, as before.
"""

from __future__ import annotations

import json
import re
import secrets
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import ValidationError

__all__ = [
    "to_jsonable",
    "canonical_json",
    "ranking_to_dict",
    "ranking_from_dict",
    "ranking_set_to_dict",
    "ranking_set_from_dict",
    "cut_orders",
    "parse_orders",
    "candidate_table_to_dict",
    "candidate_table_from_dict",
    "dump_json",
    "load_json",
]


#: Exact types :func:`to_jsonable` returns unchanged without further checks
#: (numpy scalars are other types, even where they subclass these).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_jsonable(value: Any) -> Any:
    """Recursively convert numpy types and library objects into JSON-safe values."""
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, Ranking):
        return ranking_to_dict(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to a canonical JSON string (sorted keys, no spaces).

    Two structurally equal values always produce the identical string, so the
    output can be hashed — this is the byte representation behind the
    content-addressed cache keys in :mod:`repro.cache.fingerprint` — or
    compared for the bit-identity assertions the cache benchmarks make.
    ``allow_nan=False`` keeps every blob strict JSON: a NaN would survive
    :func:`json.dumps` but break round-trip equality, so it is rejected at
    write time instead of corrupting the cache.
    """
    return json.dumps(
        to_jsonable(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def ranking_to_dict(ranking: Ranking) -> dict[str, Any]:
    """Serialise a ranking to a dictionary."""
    return {"order": ranking.to_list()}


def ranking_from_dict(payload: dict[str, Any]) -> Ranking:
    """Rebuild a ranking serialised with :func:`ranking_to_dict`."""
    if "order" not in payload:
        raise ValidationError("ranking payload is missing the 'order' key")
    return Ranking(payload["order"])


def ranking_set_to_dict(rankings: RankingSet) -> dict[str, Any]:
    """Serialise a ranking set (orders, labels, weights) to a dictionary."""
    return {
        "orders": rankings.to_order_lists(),
        "labels": list(rankings.labels),
        "weights": rankings.weights.tolist(),
    }


def _is_order_lists(orders: Any) -> bool:
    """Whether ``orders`` is a list of lists of integers (``bool`` excluded)."""
    if not isinstance(orders, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in orders
    ):
        return False
    kinds = set(map(type, chain.from_iterable(orders)))
    return all(
        issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)
        for kind in kinds
    )


def ranking_set_from_dict(payload: dict[str, Any]) -> RankingSet:
    """Rebuild a ranking set serialised with :func:`ranking_set_to_dict`.

    ``orders`` must be a list of lists of integer candidate ids, as
    :func:`json.loads` decodes them, or an integer matrix such as the one
    :func:`parse_orders` returns; anything else (a number, floats, strings,
    booleans) raises :class:`~repro.exceptions.ValidationError`.  Both are
    built by :meth:`RankingSet.from_orders`, so they give the same set and
    the same errors.
    """
    if "orders" not in payload:
        raise ValidationError("ranking set payload is missing the 'orders' key")
    orders = payload["orders"]
    integer_matrix = isinstance(orders, np.ndarray) and orders.dtype.kind in "iu"
    if not integer_matrix and not _is_order_lists(orders):
        raise ValidationError(
            "ranking set 'orders' must be a list of lists of integer candidate ids"
        )
    return RankingSet.from_orders(
        orders,
        labels=payload.get("labels"),
        weights=payload.get("weights"),
    )


#: JSON whitespace: space, tab, line feed and carriage return.
_JSON_WHITESPACE = b" \t\n\r"

#: An ``"orders"`` key whose value opens an array.
_ORDERS_KEY = re.compile(rb'"orders"[ \t\n\r]*:[ \t\n\r]*\[')

#: Text bytes :func:`parse_orders` handles per numpy pass, so its
#: temporaries stay near a few hundred KiB whatever the body size.
_SCAN_BYTES = 1 << 16

#: Text bytes per whole-text ``bytes`` call (translate), which holds the GIL
#: throughout: about a millisecond each, so the event loop is never held
#: up long while the lookup thread parses a large body.
_GIL_BYTES = 1 << 20


def cut_orders(raw: bytes) -> tuple[dict[str, Any], bytes] | None:
    """Decode a JSON object body with its ``rankings.orders`` array cut out.

    The cut runs from the ``[`` after the first ``"orders":`` key to the
    next ``"`` or ``}``, less trailing whitespace and commas.  It is
    replaced by a random placeholder string that does not occur in the
    body, and the rest is decoded with :func:`json.loads`.  The cut is the
    value only if the decoded rest is an object whose ``rankings`` object
    has the placeholder as its ``orders``: that rules out a cut inside a
    string, a nested look-alike, and a duplicate key (:func:`json.loads`
    keeps the last).  Returns ``(rest, cut)``, ``rest["rankings"]["orders"]``
    still the placeholder, or ``None`` when the body does not have that
    shape.  Whether the cut is a strict order matrix is
    :func:`parse_orders`' question.
    """
    key = _ORDERS_KEY.search(raw)
    if key is None:
        return None
    start = key.end() - 1
    stops = [stop for stop in (raw.find(b'"', start), raw.find(b"}", start)) if stop >= 0]
    cut = raw[start : min(stops, default=len(raw))].rstrip(_JSON_WHITESPACE + b",")
    placeholder = secrets.token_hex(16)
    if placeholder.encode() in raw:
        return None
    try:
        rest = json.loads(
            b"".join((raw[:start], b'"', placeholder.encode(), b'"', raw[start + len(cut) :]))
        )
    except (ValueError, RecursionError):  # JSON and UTF-8 errors are ValueErrors
        return None
    if not isinstance(rest, dict):
        return None
    rankings = rest.get("rankings")
    if not isinstance(rankings, dict) or rankings.get("orders") != placeholder:
        return None
    return rest, cut


def parse_orders(text: bytes) -> np.ndarray | None:
    """The ``m x n`` int64 order matrix of a strict JSON array text, or ``None``.

    The grammar is stricter than JSON.  The text may hold only ``[``, ``]``,
    ``,``, ASCII digits and JSON whitespace; the array is exactly two deep;
    every row is non-empty and as long as the first; and every number has
    no leading zero and is no wider than ``n - 1``, the widest id, so none
    can overflow.  Such a text decodes with :func:`json.loads` to the
    returned matrix, element for element.  Any other text returns ``None``,
    and the body is then decoded whole.  The checks run before numpy reads
    a digit: ``np.fromstring(sep=",")``, for one, reads ``01`` as 1 and
    ``1,2,`` as ``[1, 2]``.
    """
    compact = b"".join(
        text[start : start + _GIL_BYTES].translate(None, _JSON_WHITESPACE)
        for start in range(0, len(text), _GIL_BYTES)
    )
    if compact[:2] != b"[[" or compact[-2:] != b"]]":
        return None
    # Rows sit between compact[2] and compact[-2], joined by "],[".  A pass
    # takes whole rows: at least _SCAN_BYTES, and at least the first row.
    end = len(compact) - 2
    first_row_end = compact.find(b"]", 2)
    n = compact.count(b",", 2, first_row_end) + 1
    width = len(str(n - 1))
    step = max(_SCAN_BYTES, first_row_end)
    blocks = []
    start = 2
    while True:
        stop = compact.find(b"],[", start + step, end)
        last = stop < 0
        block = _parse_rows(compact[start : end if last else stop].split(b"],["), n, width)
        if block is None:
            return None
        blocks.append(block)
        if last:
            break
        start = stop + 3
    matrix = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
    # Whitespace may separate tokens but never split a number: "1 2" is two
    # JSON numbers (and invalid JSON), though its compact text reads 12.
    if len(compact) != len(text) and _digit_runs(text) != matrix.size:
        return None
    return matrix


def _parse_rows(rows: list[bytes], n: int, width: int) -> np.ndarray | None:
    """Parse rows of comma-separated digits into a ``len(rows) x n`` block.

    ``None`` unless every row holds exactly ``n`` numbers, each 1 to
    ``width`` digits long and without a leading zero.
    """
    text = b",".join(rows)
    if text.translate(None, b"0123456789,"):  # a bracket, sign, dot, letter...
        return None
    chars = np.frombuffer(text, dtype=np.uint8)
    commas = np.flatnonzero(chars == ord(","))
    count = len(rows) * n
    if commas.size != count - 1:
        return None
    # Row r ends at the comma after its n-th number.
    row_ends = np.cumsum([len(row) + 1 for row in rows])[:-1] - 1
    if not np.array_equal(commas[n - 1 :: n], row_ends):
        return None
    starts = np.empty(count, dtype=np.intp)
    starts[0] = 0
    starts[1:] = commas + 1
    lengths = np.empty(count, dtype=np.intp)
    lengths[:-1] = commas
    lengths[-1] = chars.size
    lengths -= starts
    if lengths.min() < 1 or lengths.max() > width:
        return None
    digits = chars - np.uint8(ord("0"))
    values = digits[starts].astype(np.int64)
    if width > 1 and (values[lengths > 1] == 0).any():  # a leading zero
        return None
    for place in range(1, width):
        more = lengths > place
        following = np.minimum(starts + place, chars.size - 1)
        values = np.where(more, values * 10 + digits[following], values)
    return values.reshape(len(rows), n)


def _digit_runs(text: bytes) -> int:
    """The number of maximal runs of ASCII digits in ``text``."""
    runs, previous = 0, False
    view = memoryview(text)
    for start in range(0, len(text), _SCAN_BYTES):
        chars = np.frombuffer(view[start : start + _SCAN_BYTES], dtype=np.uint8)
        digit = (chars - np.uint8(ord("0"))) < 10
        runs += int(np.count_nonzero(digit[1:] > digit[:-1]))
        runs += int(digit[0] and not previous)
        previous = bool(digit[-1])
    return runs


def candidate_table_to_dict(table: CandidateTable) -> dict[str, Any]:
    """Serialise a candidate table (names + attribute columns + domains)."""
    return {
        "names": list(table.names),
        "attributes": {name: list(table.column(name)) for name in table.attribute_names},
        "domains": {
            attribute.name: list(attribute.domain) for attribute in table.attributes
        },
    }


def candidate_table_from_dict(payload: dict[str, Any]) -> CandidateTable:
    """Rebuild a candidate table serialised with :func:`candidate_table_to_dict`."""
    if "attributes" not in payload:
        raise ValidationError("candidate table payload is missing 'attributes'")
    return CandidateTable(
        payload["attributes"],
        names=payload.get("names"),
        domains=payload.get("domains"),
    )


def dump_json(value: Any, path: str | Path, indent: int = 2) -> None:
    """Write ``value`` (converted with :func:`to_jsonable`) to ``path`` as JSON."""
    path = Path(path)
    with path.open("w") as handle:
        json.dump(to_jsonable(value), handle, indent=indent)
        handle.write("\n")


def load_json(path: str | Path) -> Any:
    """Load a JSON file written by :func:`dump_json`."""
    with Path(path).open() as handle:
        return json.load(handle)
