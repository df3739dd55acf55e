"""Candidate universe and protected-attribute model.

This module implements the data model of Section II-A of the MANI-Rank paper:

* a *candidate database* ``X`` of ``n`` candidates,
* a set of categorical *protected attributes* ``P = {p1, ..., pq}``, each with
  a finite domain of values,
* *protected attribute groups* (Definition 1): all candidates sharing one
  value of one attribute,
* *intersectional groups* (Definition 2): all candidates sharing a full
  combination of values across every protected attribute.

The central class is :class:`CandidateTable`.  It is deliberately immutable:
fairness metrics, aggregators and experiment harnesses all share one table, so
accidental mutation would silently invalidate cached group indexes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import AttributeDomainError, CandidateError, ValidationError

__all__ = [
    "ProtectedAttribute",
    "Group",
    "CandidateTable",
    "intersection_label",
]


def intersection_label(values: Sequence[Any]) -> str:
    """Build a human-readable label for an intersectional value combination.

    Example: ``intersection_label(["Woman", "Black"]) == "Woman & Black"``.
    """
    return " & ".join(str(value) for value in values)


@dataclass(frozen=True)
class ProtectedAttribute:
    """A categorical protected attribute and its value domain.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"Gender"``.
    domain:
        Ordered tuple of distinct values the attribute can take.  The order is
        only used for deterministic iteration and reporting; it carries no
        semantic meaning.
    """

    name: str
    domain: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("protected attribute name must be non-empty")
        if len(self.domain) < 2:
            raise AttributeDomainError(
                f"attribute {self.name!r} needs at least two values, "
                f"got {len(self.domain)}"
            )
        if len(set(self.domain)) != len(self.domain):
            raise AttributeDomainError(
                f"attribute {self.name!r} has duplicate domain values: {self.domain}"
            )

    @property
    def cardinality(self) -> int:
        """Number of values in the attribute domain (``|pk|`` in the paper)."""
        return len(self.domain)

    def index_of(self, value: Any) -> int:
        """Return the position of ``value`` in the domain.

        Raises
        ------
        AttributeDomainError
            If the value is not part of the domain.
        """
        try:
            return self.domain.index(value)
        except ValueError as exc:
            raise AttributeDomainError(
                f"value {value!r} is not in the domain of attribute "
                f"{self.name!r}: {self.domain}"
            ) from exc


@dataclass(frozen=True)
class Group:
    """A group of candidates sharing an attribute value (or intersection value).

    Attributes
    ----------
    attribute:
        The attribute name this group belongs to, or the special name
        ``"intersection"`` for intersectional groups.
    value:
        The attribute value (or tuple of values for intersectional groups).
    members:
        Sorted tuple of candidate ids belonging to the group.
    """

    attribute: str
    value: Any
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of candidates in the group."""
        return len(self.members)

    @property
    def label(self) -> str:
        """Readable label, e.g. ``"Gender=Woman"`` or ``"Woman & Black"``."""
        if self.attribute == CandidateTable.INTERSECTION:
            return intersection_label(self.value)
        return f"{self.attribute}={self.value}"

    def member_set(self) -> frozenset[int]:
        """Return the members as a frozen set for O(1) membership checks."""
        return frozenset(self.members)

    def __contains__(self, candidate: int) -> bool:
        return candidate in self.member_set()


class CandidateTable:
    """Immutable table of candidates with categorical protected attributes.

    Candidates are identified by consecutive integer ids ``0 .. n-1``.  A
    table is constructed from a mapping of attribute name to the per-candidate
    value list::

        table = CandidateTable(
            {
                "Gender": ["Man", "Woman", "Woman", "Non-binary"],
                "Race": ["White", "Black", "White", "Asian"],
            },
            names=["alice", "bob", "carol", "dave"],
        )

    The table exposes the group structure the MANI-Rank criteria are defined
    over: :meth:`groups` for protected-attribute groups (Definition 1) and
    :meth:`intersectional_groups` (Definition 2).
    """

    #: Pseudo-attribute name used for the intersection of all attributes.
    INTERSECTION = "intersection"

    def __init__(
        self,
        attributes: Mapping[str, Sequence[Any]],
        names: Sequence[str] | None = None,
        domains: Mapping[str, Sequence[Any]] | None = None,
    ) -> None:
        if not attributes:
            raise CandidateError("a candidate table needs at least one attribute")
        lengths = {name: len(values) for name, values in attributes.items()}
        distinct_lengths = set(lengths.values())
        if len(distinct_lengths) != 1:
            raise CandidateError(
                f"attribute columns have inconsistent lengths: {lengths}"
            )
        self._n = distinct_lengths.pop()
        if self._n == 0:
            raise CandidateError("a candidate table must contain candidates")
        if self.INTERSECTION in attributes:
            raise CandidateError(
                f"{self.INTERSECTION!r} is a reserved attribute name"
            )

        self._values: dict[str, tuple[Any, ...]] = {
            name: tuple(values) for name, values in attributes.items()
        }
        self._attributes: dict[str, ProtectedAttribute] = {}
        for name, values in self._values.items():
            if domains and name in domains:
                domain = tuple(domains[name])
                missing = set(values) - set(domain)
                if missing:
                    raise AttributeDomainError(
                        f"values {sorted(map(str, missing))} of attribute "
                        f"{name!r} are not in the declared domain {domain}"
                    )
            else:
                domain = tuple(dict.fromkeys(values))
            self._attributes[name] = ProtectedAttribute(name, domain)

        if names is not None:
            if len(names) != self._n:
                raise CandidateError(
                    f"got {len(names)} candidate names for {self._n} candidates"
                )
            if len(set(names)) != len(names):
                raise CandidateError("candidate names must be unique")
            self._names = tuple(str(name) for name in names)
        else:
            self._names = tuple(f"c{i}" for i in range(self._n))

        self._groups_by_attribute = self._build_groups()
        self._intersection_groups = self._build_intersection_groups()
        self._membership_arrays: dict[str, np.ndarray] = {}
        self._intersection_value_by_candidate = tuple(
            tuple(self._values[attr][i] for attr in self.attribute_names)
            for i in range(self._n)
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[Mapping[str, Any]],
        attribute_names: Sequence[str],
        name_field: str | None = None,
    ) -> "CandidateTable":
        """Build a table from an iterable of per-candidate dictionaries.

        Parameters
        ----------
        records:
            Iterable of dictionaries, one per candidate.
        attribute_names:
            Which keys of each record to treat as protected attributes.
        name_field:
            Optional key holding the candidate name.
        """
        records = list(records)
        if not records:
            raise CandidateError("cannot build a candidate table from zero records")
        columns: dict[str, list[Any]] = {name: [] for name in attribute_names}
        names: list[str] | None = [] if name_field else None
        for record in records:
            for attr in attribute_names:
                if attr not in record:
                    raise CandidateError(
                        f"record {record!r} is missing attribute {attr!r}"
                    )
                columns[attr].append(record[attr])
            if names is not None:
                names.append(str(record[name_field]))
        return cls(columns, names=names)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """Number of candidates ``n`` in the table."""
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def candidate_ids(self) -> range:
        """The candidate universe as a ``range`` object (ids are dense)."""
        return range(self._n)

    @property
    def names(self) -> tuple[str, ...]:
        """Candidate display names indexed by candidate id."""
        return self._names

    def name_of(self, candidate: int) -> str:
        """Return the display name of ``candidate``."""
        self._check_candidate(candidate)
        return self._names[candidate]

    def id_of(self, name: str) -> int:
        """Return the candidate id for a display name."""
        try:
            return self._names.index(name)
        except ValueError as exc:
            raise CandidateError(f"unknown candidate name {name!r}") from exc

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Names of the protected attributes in declaration order."""
        return tuple(self._attributes)

    @property
    def attributes(self) -> tuple[ProtectedAttribute, ...]:
        """The protected attributes in declaration order."""
        return tuple(self._attributes.values())

    def attribute(self, name: str) -> ProtectedAttribute:
        """Return the :class:`ProtectedAttribute` called ``name``."""
        try:
            return self._attributes[name]
        except KeyError as exc:
            raise CandidateError(f"unknown protected attribute {name!r}") from exc

    def value_of(self, candidate: int, attribute: str) -> Any:
        """Return candidate's value for ``attribute`` (``pk(xi)`` in the paper)."""
        self._check_candidate(candidate)
        if attribute == self.INTERSECTION:
            return self.intersection_value_of(candidate)
        if attribute not in self._values:
            raise CandidateError(f"unknown protected attribute {attribute!r}")
        return self._values[attribute][candidate]

    def column(self, attribute: str) -> tuple[Any, ...]:
        """Return the full value column of ``attribute`` indexed by candidate id."""
        if attribute not in self._values:
            raise CandidateError(f"unknown protected attribute {attribute!r}")
        return self._values[attribute]

    def intersection_value_of(self, candidate: int) -> tuple[Any, ...]:
        """Return ``Inter(xi)``: the tuple of all attribute values of a candidate."""
        self._check_candidate(candidate)
        return self._intersection_value_by_candidate[candidate]

    @property
    def intersection_cardinality(self) -> int:
        """``|Inter|``: the product of the attribute domain sizes."""
        product = 1
        for attribute in self._attributes.values():
            product *= attribute.cardinality
        return product

    # ------------------------------------------------------------------
    # group structure
    # ------------------------------------------------------------------
    def groups(self, attribute: str) -> tuple[Group, ...]:
        """Return the protected attribute groups of ``attribute`` (Definition 1).

        Only non-empty groups are returned (a domain value with no candidates
        forms an empty group which carries no pairwise information).  Passing
        :data:`CandidateTable.INTERSECTION` returns the intersectional groups.
        """
        if attribute == self.INTERSECTION:
            return self._intersection_groups
        if attribute not in self._groups_by_attribute:
            raise CandidateError(f"unknown protected attribute {attribute!r}")
        return self._groups_by_attribute[attribute]

    def intersectional_groups(self) -> tuple[Group, ...]:
        """Return the non-empty intersectional groups (Definition 2)."""
        return self._intersection_groups

    def group(self, attribute: str, value: Any) -> Group:
        """Return the single group for ``attribute == value``."""
        for candidate_group in self.groups(attribute):
            if candidate_group.value == value:
                return candidate_group
        raise CandidateError(
            f"no candidates have value {value!r} for attribute {attribute!r}"
        )

    def all_fairness_entities(self) -> tuple[str, ...]:
        """Attribute names the MANI-Rank criteria quantify over.

        This is every protected attribute plus the intersection pseudo
        attribute, matching Definition 7 (Equations 5 and 6).  When there is
        only one protected attribute the intersection coincides with it and is
        omitted.
        """
        names = list(self.attribute_names)
        if len(names) > 1:
            names.append(self.INTERSECTION)
        return tuple(names)

    def group_membership_array(self, attribute: str) -> np.ndarray:
        """Return an int array mapping candidate id -> group index for ``attribute``.

        Group indexes follow the order of :meth:`groups`.  This is the compact
        representation used by the vectorised fairness metrics.  The array is
        read-only and cached, because every parity evaluation asks for it.
        """
        membership = self._membership_arrays.get(attribute)
        if membership is None:
            groups = self.groups(attribute)
            membership = np.empty(self._n, dtype=np.int64)
            for index, candidate_group in enumerate(groups):
                membership[list(candidate_group.members)] = index
            membership.setflags(write=False)
            self._membership_arrays[attribute] = membership
        return membership

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attrs = ", ".join(
            f"{attribute.name}({attribute.cardinality})"
            for attribute in self._attributes.values()
        )
        return f"CandidateTable(n={self._n}, attributes=[{attrs}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CandidateTable):
            return NotImplemented
        return self._values == other._values and self._names == other._names

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted(self._values.items())),
                self._names,
            )
        )

    def to_records(self) -> list[dict[str, Any]]:
        """Return a list of per-candidate dictionaries (name + attributes)."""
        records = []
        for candidate in range(self._n):
            record: dict[str, Any] = {"name": self._names[candidate]}
            for attribute in self.attribute_names:
                record[attribute] = self._values[attribute][candidate]
            records.append(record)
        return records

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_candidate(self, candidate: int) -> None:
        if not isinstance(candidate, (int, np.integer)):
            raise CandidateError(f"candidate id must be an int, got {candidate!r}")
        if not 0 <= candidate < self._n:
            raise CandidateError(
                f"candidate id {candidate} out of range [0, {self._n})"
            )

    def _build_groups(self) -> dict[str, tuple[Group, ...]]:
        groups: dict[str, tuple[Group, ...]] = {}
        for name, attribute in self._attributes.items():
            column = self._values[name]
            per_value: dict[Any, list[int]] = {value: [] for value in attribute.domain}
            for candidate, value in enumerate(column):
                if value not in per_value:
                    raise AttributeDomainError(
                        f"value {value!r} of candidate {candidate} is outside "
                        f"the domain of {name!r}"
                    )
                per_value[value].append(candidate)
            groups[name] = tuple(
                Group(name, value, tuple(members))
                for value, members in per_value.items()
                if members
            )
        return groups

    def _build_intersection_groups(self) -> tuple[Group, ...]:
        per_combo: dict[tuple[Any, ...], list[int]] = {}
        for candidate in range(self._n):
            combo = tuple(
                self._values[attribute][candidate]
                for attribute in self.attribute_names
            )
            per_combo.setdefault(combo, []).append(candidate)
        ordered = sorted(per_combo.items(), key=lambda item: tuple(map(str, item[0])))
        return tuple(
            Group(self.INTERSECTION, combo, tuple(members))
            for combo, members in ordered
        )
