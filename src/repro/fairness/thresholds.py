"""Fairness thresholds (the ``Δ`` parameter of the MANI-Rank criteria).

Definition 7 of the paper uses a single threshold ``Δ`` applied to every
protected attribute and to the intersection.  Section II-B ("Customizing Group
Fairness") notes that applications may instead set a per-attribute threshold
``Δ_pk`` and a separate ``Δ_Inter``.  :class:`FairnessThresholds` models both:
a scalar threshold broadcast to every fairness entity, or an explicit mapping.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.candidates import CandidateTable
from repro.exceptions import ValidationError

__all__ = ["FairnessThresholds"]


class FairnessThresholds:
    """Per-entity fairness thresholds for the MANI-Rank criteria.

    Parameters
    ----------
    default:
        Threshold applied to every fairness entity not listed in
        ``per_entity``.  Must be in [0, 1].
    per_entity:
        Optional mapping from attribute name (or
        :data:`CandidateTable.INTERSECTION`) to a specific threshold.

    Examples
    --------
    >>> FairnessThresholds(0.1).threshold_for("Gender")
    0.1
    >>> thresholds = FairnessThresholds(0.1, {"Race": 0.05})
    >>> thresholds.threshold_for("Race")
    0.05
    """

    def __init__(
        self,
        default: float,
        per_entity: Mapping[str, float] | None = None,
    ) -> None:
        self._default = self._validate(default, "default")
        self._per_entity = {
            str(entity): self._validate(value, entity)
            for entity, value in (per_entity or {}).items()
        }

    @staticmethod
    def _validate(value: float, label: str) -> float:
        try:
            value = float(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"threshold {label!r} must be a number") from exc
        if not 0.0 <= value <= 1.0:
            raise ValidationError(
                f"threshold {label!r} must be in [0, 1], got {value}"
            )
        return value

    @classmethod
    def coerce(cls, delta: "FairnessThresholds | float | Mapping[str, float]") -> "FairnessThresholds":
        """Build thresholds from a scalar, a mapping, or an existing instance.

        A scalar is the common case (the paper's single ``Δ``).  A mapping
        gives per-entity thresholds; its optional ``"default"`` key applies
        to every entity it does not name, and without that key those
        entities get 1.0, which leaves them unconstrained.
        """
        if isinstance(delta, cls):
            return delta
        if isinstance(delta, Mapping):
            mapping = dict(delta)
            default = mapping.pop("default", 1.0)
            return cls(default, mapping)
        return cls(float(delta))

    @property
    def default(self) -> float:
        """The default threshold used for entities without an explicit value."""
        return self._default

    @property
    def per_entity(self) -> dict[str, float]:
        """Copy of the explicit per-entity thresholds."""
        return dict(self._per_entity)

    def threshold_for(self, entity: str) -> float:
        """Return the threshold applying to ``entity``."""
        return self._per_entity.get(entity, self._default)

    def as_mapping(self, table: CandidateTable) -> dict[str, float]:
        """Return the concrete threshold per fairness entity of ``table``."""
        return {
            entity: self.threshold_for(entity)
            for entity in table.all_fairness_entities()
        }

    def strictest(self) -> float:
        """Return the smallest threshold over all explicit entries and the default."""
        values = [self._default, *self._per_entity.values()]
        return min(values)

    def __repr__(self) -> str:
        if self._per_entity:
            return (
                f"FairnessThresholds(default={self._default}, "
                f"per_entity={self._per_entity})"
            )
        return f"FairnessThresholds({self._default})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FairnessThresholds):
            return NotImplemented
        return (
            self._default == other._default
            and self._per_entity == other._per_entity
        )

    def __hash__(self) -> int:
        return hash((self._default, tuple(sorted(self._per_entity.items()))))
