"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of the library with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "RankingError",
    "CandidateError",
    "AttributeDomainError",
    "AggregationError",
    "InfeasibleProblemError",
    "SolverError",
    "FairnessError",
    "DataGenerationError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input value failed validation (wrong shape, range, or type)."""


class RankingError(ValidationError):
    """A ranking is malformed: not a permutation, wrong universe, or empty."""


class CandidateError(ValidationError):
    """A candidate identifier is unknown or a candidate table is malformed."""


class AttributeDomainError(ValidationError):
    """A protected attribute value falls outside its declared domain."""


class AggregationError(ReproError):
    """A rank aggregation method could not produce a consensus ranking."""


class InfeasibleProblemError(AggregationError):
    """The fair consensus problem has no feasible solution.

    Raised, for example, when the MANI-Rank constraints cannot be satisfied
    for the requested ``delta`` (e.g. group structure makes parity at the
    requested threshold impossible for any permutation).
    """


class SolverError(AggregationError):
    """The underlying optimization backend failed or returned a bad status."""


class FairnessError(ReproError):
    """A fairness metric was requested for an invalid group configuration."""


class DataGenerationError(ReproError):
    """A synthetic data generator received inconsistent parameters."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""
