"""JSON-friendly serialisation of the core objects and experiment results.

Everything returned here is built from plain dictionaries, lists, strings and
numbers so it can be fed directly to :func:`json.dump` (and symmetric loaders
rebuild the objects).  Experiment result records also pass through
:func:`to_jsonable` so numpy scalars and arrays never leak into output files.
"""

from __future__ import annotations

import json
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


def ranking_set_from_dict(payload: dict[str, Any]) -> RankingSet:
    """Rebuild a ranking set serialised with :func:`ranking_set_to_dict`."""
    if "orders" not in payload:
        raise ValidationError("ranking set payload is missing the 'orders' key")
    return RankingSet.from_orders(
        payload["orders"],
        labels=payload.get("labels"),
        weights=payload.get("weights"),
    )


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
