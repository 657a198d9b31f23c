"""Seeded simulation campaigns: one grid harness over :func:`run_sweep`.

A :class:`Campaign` is the §5 evidence shape past the paper figures —
a grid of seeded runs of one picklable point function, reduced to a
table.  The fault (:data:`repro.faults.chaos.CHAOS`), membership
(:data:`repro.membership.sweep.CHURN`) and concurrent-session
(:data:`repro.sessions.sweep.SESSIONS`) campaigns are three values of
this one type; ``repro-mcast chaos|churn|sessions`` drives all three
through one command path.

Records merge in grid order, so :func:`records_json` of the same grid
is byte-identical for any worker count, and a ``checkpoint`` journals
completed chunks so a killed campaign resumes instead of restarting.
:func:`write_records` stores a record list in the versioned envelope
``{"version": 1, "manifest": ..., "records": [...]}`` that
:func:`load_records` reads back.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..durable.atomic import atomic_write_json, safe_load_json
from ..durable.errors import StoreCorruptionError
from ..obs.tracer import Tracer
from .sweep import run_sweep

__all__ = ["RECORDS_VERSION", "Campaign", "load_records", "records_json", "write_records"]

#: Schema version of the record envelope :func:`write_records` writes.
RECORDS_VERSION = 1

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class Campaign:
    """One seeded simulation campaign.

    ``point(**axes, **point_kwargs)`` returns one JSON-safe record and
    must be picklable (a module-level function) for ``workers > 1``.
    ``grid`` maps each axis name, in grid order (the last varies
    fastest), to its default values; ``smoke_grid`` and
    ``smoke_kwargs`` are the CI-sized run that ``check`` asserts on.
    ``slo`` names the :func:`~repro.obs.slo.default_slos` objective
    whose alert log the records replay through; ``events(record,
    spec)`` yields that record's ``(good, weight)`` outcomes.
    """

    name: str
    point: Callable[..., dict]
    grid: Mapping[str, Sequence]
    table: Callable[[Sequence[dict]], str]
    smoke_grid: Mapping[str, Sequence]
    smoke_kwargs: Mapping[str, object]
    check: Callable[[List[dict]], None]
    smoke_summary: str
    slo: Optional[str] = None
    events: Optional[Callable[[dict, object], Iterable[Tuple[bool, float]]]] = None

    def run(
        self,
        grid: Mapping[str, Sequence],
        *,
        workers: int = 1,
        tracer: Optional[Tracer] = None,
        checkpoint: Optional[PathLike] = None,
        **point_kwargs,
    ) -> List[dict]:
        """Every record of ``grid`` (one value list per axis), in grid order.

        Results are independent of ``workers``, and a ``checkpoint``
        resume is byte-identical to an uninterrupted run.
        """
        points = run_sweep(
            partial(self.point, **point_kwargs),
            {axis: list(grid[axis]) for axis in self.grid},
            workers=workers,
            tracer=tracer,
            checkpoint=checkpoint,
        )
        return [p.value for p in points]

    def smoke(self, workers: int = 1, checkpoint: Optional[PathLike] = None) -> List[dict]:
        """The CI-sized run through :meth:`run`, asserted by ``check``.

        Raises ``AssertionError`` on a violated contract (so the CI
        step fails loudly), returns the records otherwise.
        """
        records = self.run(
            self.smoke_grid, workers=workers, checkpoint=checkpoint, **self.smoke_kwargs
        )
        self.check(records)
        return records

    def alert_log(
        self,
        records: Sequence[dict],
        *,
        spacing: float = 1.0,
        threshold: Optional[float] = None,
    ) -> dict:
        """Replay ``records`` through the campaign's SLO.

        Record ``i`` lands at ``t = i * spacing`` seconds on a synthetic
        timeline, so the same record list always produces the same
        alert log.  Returns ``{"alerts": [...], "slo": <snapshot>,
        "records": N}``.
        """
        if self.slo is None or self.events is None:
            raise ValueError(f"campaign {self.name!r} has no SLO to replay")
        from ..obs.slo import SLOSet, default_slos

        specs = [s for s in default_slos() if s.name == self.slo]
        kwargs = {} if threshold is None else {"threshold": threshold}
        slos = SLOSet(specs, clock=lambda: 0.0, **kwargs)
        for index, record in enumerate(records):
            t = index * spacing
            for good, weight in self.events(record, specs[0]):
                if weight:
                    slos.record(self.slo, good, weight=weight, t=t)
        final_t = (len(records) - 1) * spacing if records else 0.0
        return {
            "alerts": slos.alert_dicts(),
            "slo": slos.snapshot(t=final_t),
            "records": len(records),
        }


def records_json(records: Sequence[dict]) -> str:
    """Canonical JSON for a record list (sorted keys, compact, stable)."""
    return json.dumps(list(records), sort_keys=True, separators=(",", ":"))


def write_records(path: PathLike, records: Sequence[dict], manifest: Mapping) -> str:
    """Atomically write the CRC-stamped record envelope; returns the path."""
    payload = {
        "version": RECORDS_VERSION,
        "manifest": manifest,
        "records": json.loads(records_json(records)),
    }
    return atomic_write_json(path, payload, sort_keys=True)


def load_records(path: PathLike) -> List[dict]:
    """The record list of an envelope written by :func:`write_records`.

    Raises :class:`~repro.durable.errors.StoreCorruptionError` (never a
    raw ``JSONDecodeError``) on truncated, tampered or wrong-shape
    input, including a missing ``version``, and
    :class:`~repro.durable.errors.StoreVersionError` on an unknown one —
    downstream analysis must not chew on half a file.
    """
    doc = safe_load_json(path, expected_version=RECORDS_VERSION)
    records = doc.get("records")
    if (
        "version" not in doc
        or not isinstance(records, list)
        or not all(isinstance(r, dict) for r in records)
    ):
        raise StoreCorruptionError(
            f"{os.fspath(path)!r} is not a campaign record file (need a "
            '"version" and a "records" array of objects); regenerate it with '
            "the campaign's --out"
        )
    return records
