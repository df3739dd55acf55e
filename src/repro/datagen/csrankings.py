"""Synthetic CSRankings-like dataset (the appendix case study, Table V).

The appendix of the paper aggregates 21 yearly CSRankings orderings
(2000–2020) of 65 US computer-science departments into a 20-year consensus
ranking, using two protected attributes of the *institutions*: geographic
Location (Northeast, Midwest, West, South) and Type (Private, Public).  The
base rankings exhibit a persistent advantage for Northeast and Private
institutions, which Kemeny amplifies and the MFCR methods remove.

CSRankings data is scraped from csrankings.org, so this module generates a
synthetic equivalent: each department
has a latent quality score with a Northeast and Private bonus, and each year's
ranking is the quality ordering perturbed by year-specific noise.  The result
reproduces the structural facts Table V relies on — high Location ARP, a
Private advantage, and IRP around 0.5 for the base rankings and the Kemeny
consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateTable
from repro.core.ranking import Ranking
from repro.core.ranking_set import RankingSet
from repro.exceptions import DataGenerationError

__all__ = ["CSRankingsDataset", "generate_csrankings_dataset"]

_LOCATION_DOMAIN = ("Northeast", "Midwest", "West", "South")
_TYPE_DOMAIN = ("Private", "Public")

#: Department counts per region roughly matching the 65-institution study.
_LOCATION_COUNTS = {"Northeast": 20, "Midwest": 15, "West": 16, "South": 14}
#: Probability a department in each region is private.
_PRIVATE_PROBABILITY = {"Northeast": 0.65, "Midwest": 0.40, "West": 0.45, "South": 0.35}

#: Latent quality bonuses creating the persistent bias observed in Table V.
_LOCATION_BONUS = {"Northeast": +0.9, "Midwest": -0.1, "West": +0.45, "South": -1.0}
_TYPE_BONUS = {"Private": +0.5, "Public": 0.0}
_QUALITY_STD = 1.0
_YEAR_NOISE_STD = 0.55


@dataclass(frozen=True)
class CSRankingsDataset:
    """Synthetic CSRankings dataset: departments, yearly rankings, and years."""

    table: CandidateTable
    rankings: RankingSet
    years: tuple[int, ...]


def generate_csrankings_dataset(
    n_departments: int = 65,
    first_year: int = 2000,
    last_year: int = 2020,
    seed: int | None = 41,
) -> CSRankingsDataset:
    """Generate the synthetic CSRankings dataset used by the Table V reproduction.

    Parameters
    ----------
    n_departments:
        Number of departments (the paper uses 65).
    first_year / last_year:
        Inclusive year range; each year contributes one base ranking.
    seed:
        Seed controlling both department attributes and yearly noise.
    """
    if last_year < first_year:
        raise DataGenerationError(
            f"last_year ({last_year}) must not precede first_year ({first_year})"
        )
    if n_departments < 8:
        raise DataGenerationError(
            f"the CSRankings case study needs at least 8 departments, got {n_departments}"
        )
    rng = np.random.default_rng(seed)

    # Allocate departments to regions proportionally to the reference counts.
    reference_total = sum(_LOCATION_COUNTS.values())
    locations: list[str] = []
    for region, count in _LOCATION_COUNTS.items():
        allocated = max(1, round(n_departments * count / reference_total))
        locations.extend([region] * allocated)
    locations = locations[:n_departments]
    while len(locations) < n_departments:
        locations.append("Midwest")
    rng.shuffle(locations)

    types = [
        "Private" if rng.random() < _PRIVATE_PROBABILITY[region] else "Public"
        for region in locations
    ]
    # Guarantee both types appear.
    if "Private" not in types:
        types[0] = "Private"
    if "Public" not in types:
        types[-1] = "Public"

    table = CandidateTable(
        {"Location": locations, "Type": types},
        names=[f"dept-{index:02d}" for index in range(n_departments)],
        domains={"Location": _LOCATION_DOMAIN, "Type": _TYPE_DOMAIN},
    )

    quality = rng.normal(0.0, _QUALITY_STD, size=n_departments)
    quality += np.array([_LOCATION_BONUS[region] for region in locations])
    quality += np.array([_TYPE_BONUS[kind] for kind in types])

    years = tuple(range(first_year, last_year + 1))
    rankings = []
    for _ in years:
        yearly = quality + rng.normal(0.0, _YEAR_NOISE_STD, size=n_departments)
        rankings.append(Ranking.from_scores(yearly, descending=True))
    ranking_set = RankingSet(rankings, labels=[str(year) for year in years])
    return CSRankingsDataset(table=table, rankings=ranking_set, years=years)
