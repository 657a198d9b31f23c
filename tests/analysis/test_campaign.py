"""The three campaigns share one harness: worker-count determinism and
record files that the CLI writes and ``load_records`` reads back."""

from __future__ import annotations

import json

import pytest

from repro.analysis.campaign import load_records, records_json
from repro.cli import main
from repro.faults import CHAOS
from repro.membership import CHURN
from repro.sessions import SESSIONS

CAMPAIGNS = [CHAOS, CHURN, SESSIONS]

#: A small non-smoke grid per campaign, as CLI arguments.
SMALL_GRID = {
    "chaos": ("--runs", "1", "--dests", "7", "--bytes", "128"),
    "churn": ("--runs", "1", "--dests", "7", "--bytes", "128"),
    "sessions": (
        "--runs", "1", "--dests", "7", "--bytes", "128", "--count", "4",
        "--schedulers", "fifo,cda", "--loads", "2.0",
    ),
}


@pytest.mark.parametrize("campaign", CAMPAIGNS, ids=lambda c: c.name)
def test_records_identical_across_worker_counts(campaign):
    """workers=1 and workers=4 give byte-identical records on the smoke grid."""
    runs = [
        records_json(campaign.run(campaign.smoke_grid, workers=w, **campaign.smoke_kwargs))
        for w in (1, 4)
    ]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("campaign", CAMPAIGNS, ids=lambda c: c.name)
def test_cli_out_file_loads_back(campaign, capsys, tmp_path):
    path = tmp_path / f"{campaign.name}.json"
    assert main([campaign.name, *SMALL_GRID[campaign.name], "--out", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert payload["manifest"]["command"] == campaign.name
    assert payload["records"]
    assert load_records(path) == payload["records"]
