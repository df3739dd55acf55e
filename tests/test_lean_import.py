"""scipy is loaded on first use, not when the package is imported.

The served fair methods (Fair-Borda, Fair-Copeland and their repairs) never
call scipy; only the exact MILP methods and the footrule aggregator do.  Each
check runs in a fresh interpreter, since this test process has imported
scipy long before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import json, sys
import repro, repro.api, repro.cache.http, repro.cli
before = "scipy" in sys.modules
from repro.aggregation import {aggregator}
from repro.core.ranking_set import RankingSet
rankings = RankingSet.from_orders([[0, 1, 2, 3], [1, 0, 2, 3], [0, 2, 1, 3]])
order = {aggregator}().aggregate(rankings).to_list()
print(json.dumps({{"before": before, "after": "scipy" in sys.modules, "order": order}}))
"""


@pytest.mark.parametrize("aggregator", ["FootruleAggregator", "KemenyAggregator"])
def test_scipy_loads_only_when_an_exact_method_runs(aggregator):
    completed = subprocess.run(
        [sys.executable, "-c", PROGRAM.format(aggregator=aggregator)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SOURCE)},
        timeout=120,
    )
    report = json.loads(completed.stdout)
    assert report == {"before": False, "after": True, "order": [0, 1, 2, 3]}
