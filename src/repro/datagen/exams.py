"""Synthetic student exam-score dataset (the merit-scholarship case study).

The paper's case study (Section IV-F, Table IV) uses the publicly available
"Exam Scores" generated dataset by Royce Kimmons [34]: per-student math,
reading and writing scores with three protected attributes — Gender (man /
woman), Race (five racial groups) and Lunch (whether the student receives
subsidised lunch).  The three subject score columns become three base
rankings over 200 students.

That generator is an external web tool, so this module re-creates the same
*structure* synthetically:

* Lunch has the largest effect on all three subjects (students without
  subsidised lunch score visibly higher) — this drives the large Lunch ARP of
  the base rankings in Table IV;
* Gender effects differ by subject: men score slightly higher in math, women
  clearly higher in reading and writing — matching the sign flips of the
  Gender FPR columns of Table IV;
* Race groups have moderate mean offsets, with the "NatHawaii" group
  disadvantaged — matching the low NatHawaii FPR of Table IV.

Scores are drawn from group-conditional normal distributions with a fixed
seed, so the dataset (and every number derived from it) is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidateTable
from repro.core.ranking_set import RankingSet
from repro.exceptions import DataGenerationError

__all__ = ["ExamDataset", "generate_exam_dataset", "SUBJECTS"]

#: The three exam subjects; each becomes one base ranking.
SUBJECTS = ("Math", "Reading", "Writing")

_GENDER_DOMAIN = ("Man", "Woman")
_RACE_DOMAIN = ("Asian", "White", "Black", "AlaskaNat", "NatHawaii")
_LUNCH_DOMAIN = ("NoSub", "SubLunch")

#: Marginal probabilities of each attribute value (loosely mirroring the
#: public dataset's distribution).
_GENDER_PROPORTIONS = (0.48, 0.52)
_RACE_PROPORTIONS = (0.18, 0.32, 0.20, 0.18, 0.12)
_LUNCH_PROPORTIONS = (0.64, 0.36)

#: Additive mean score effects per subject (points on a 0-100 scale).
_LUNCH_EFFECT = {"NoSub": 0.0, "SubLunch": -9.0}
_GENDER_EFFECT = {
    "Math": {"Man": +2.5, "Woman": 0.0},
    "Reading": {"Man": 0.0, "Woman": +6.0},
    "Writing": {"Man": 0.0, "Woman": +7.0},
}
_RACE_EFFECT = {
    "Asian": +4.0,
    "White": 0.0,
    "Black": +2.0,
    "AlaskaNat": +1.0,
    "NatHawaii": -7.0,
}
_BASE_MEAN = 66.0
_STUDENT_STD = 9.0
_SUBJECT_NOISE_STD = 4.0


@dataclass(frozen=True)
class ExamDataset:
    """Synthetic exam dataset: candidate table, score columns, base rankings."""

    table: CandidateTable
    scores: dict[str, np.ndarray]
    rankings: RankingSet


def generate_exam_dataset(
    n_students: int = 200, seed: int | None = 2022
) -> ExamDataset:
    """Generate the synthetic exam dataset used by the Table IV reproduction.

    Parameters
    ----------
    n_students:
        Number of students (the paper uses 200).
    seed:
        Seed for the underlying generator; the default reproduces the exact
        dataset used by the benchmark harness.
    """
    if n_students < 20:
        raise DataGenerationError(
            f"the exam case study needs at least 20 students, got {n_students}"
        )
    rng = np.random.default_rng(seed)

    def draw(domain: tuple[str, ...], proportions: tuple[float, ...]) -> list[str]:
        values = list(domain)  # guarantee every group is non-empty
        remaining = n_students - len(domain)
        drawn = rng.choice(len(domain), size=remaining, p=np.asarray(proportions))
        values.extend(domain[int(index)] for index in drawn)
        rng.shuffle(values)
        return values

    genders = draw(_GENDER_DOMAIN, _GENDER_PROPORTIONS)
    races = draw(_RACE_DOMAIN, _RACE_PROPORTIONS)
    lunches = draw(_LUNCH_DOMAIN, _LUNCH_PROPORTIONS)
    table = CandidateTable(
        {"Gender": genders, "Race": races, "Lunch": lunches},
        names=[f"student-{index:03d}" for index in range(n_students)],
        domains={
            "Gender": _GENDER_DOMAIN,
            "Race": _RACE_DOMAIN,
            "Lunch": _LUNCH_DOMAIN,
        },
    )

    # Per-student latent ability shared across subjects, plus per-subject
    # group effects and noise.
    ability = rng.normal(0.0, _STUDENT_STD, size=n_students)
    scores: dict[str, np.ndarray] = {}
    for subject in SUBJECTS:
        subject_scores = np.full(n_students, _BASE_MEAN, dtype=float)
        subject_scores += ability
        subject_scores += rng.normal(0.0, _SUBJECT_NOISE_STD, size=n_students)
        for student in range(n_students):
            subject_scores[student] += _LUNCH_EFFECT[lunches[student]]
            subject_scores[student] += _GENDER_EFFECT[subject][genders[student]]
            subject_scores[student] += _RACE_EFFECT[races[student]]
        scores[subject] = np.clip(subject_scores, 0.0, 100.0)

    rankings = RankingSet.from_score_columns(scores)
    return ExamDataset(table=table, scores=scores, rankings=rankings)
