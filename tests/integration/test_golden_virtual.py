"""Virtual-time results are an invariant: compare them exactly, in tier-1.

``golden_virtual.json`` holds, for Table 1 and a grid of tiny experiments,
every virtual CPU figure at ``repr()`` precision (a float's shortest
round-tripping text, so a move in the 17th digit shows), the clock base,
the firing/batch/row counts and the summed ``meter.ops`` per charge kind.
Performance work must leave the file byte-identical; a change that *means*
to move a virtual result regenerates it and says so::

    PYTHONPATH=src python -m tests.integration.test_golden_virtual --regenerate
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import pytest

from repro.pta.rules import COMP_VARIANTS, OPTION_VARIANTS
from repro.pta.tables import Scale
from repro.pta.scaffold import Spec
from repro.pta.workload import CASCADE, DELETION, VIEW
from repro.sim import simulator
from repro.sim.costmodel import SIMPLE_UPDATE_PATH, TABLE1_US, CostModel

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_virtual.json")

#: Metrics that are wall-clock or carry whole objects, not virtual results,
#: and those computed from other metrics alone (maintenance_cpu aside).
_SKIPPED_FIELDS = {"wall_s", "scale", "oracle_report", "staleness", "attribution",
                   "batch_size_hist", "queue_depth_hist", "wal_dir",
                   "duration", "cpu_fraction", "compaction_ratio",
                   "n_deletions", "rows_touched_per_deletion"}


@contextmanager
def task_meters() -> Iterator[dict[int, dict[int, Any]]]:
    """Every executed task's meter, per database, collected from outside:
    ``simulator.execute_task`` is looked up as a module global per call."""
    meters: dict[int, dict[int, Any]] = {}
    original = simulator.execute_task

    def recording(db, task, *args, **kwargs):
        meters.setdefault(id(db), {})[task.task_id] = task.meter
        return original(db, task, *args, **kwargs)

    simulator.execute_task = recording
    try:
        yield meters
    finally:
        simulator.execute_task = original


def _plain(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(value.items())}
    return value


def snapshot(spec: Spec, **kwargs: Any) -> dict[str, Any]:
    """One experiment's virtual results, JSON-ready and exact."""
    with task_meters() as meters:
        result = spec.run(**kwargs)
    db = result.run.db
    ops: Counter = Counter(db.background_meter.ops)
    for meter in meters[id(db)].values():
        ops.update(meter.ops)
    fields = {
        name: _plain(getattr(result, name))
        for name in result.metrics
        if name not in _SKIPPED_FIELDS
        and isinstance(getattr(result, name), (int, float, str, bool, dict))
    }
    return {
        "result": fields,
        "clock_base": repr(db.clock.base),
        "background_cpu": repr(db.background_meter.total),
        "cpu_by_class": {
            klass: repr(summary.total_cpu) for klass, summary in sorted(db.metrics.by_class.items())
        },
        "ops": dict(sorted(ops.items())),
    }


def scenarios() -> dict[str, Callable[[], dict[str, Any]]]:
    tiny = Scale.tiny()
    out: dict[str, Callable[[], dict[str, Any]]] = {}
    for variant in COMP_VARIANTS:
        for compact in (False, True):
            if compact and variant == "nonunique":
                continue  # COMPACT ON requires UNIQUE
            out[f"comps/{variant}/compact={int(compact)}"] = (
                lambda v=variant, c=compact: snapshot(
                    VIEW, scale=tiny, view="comps", variant=v, delay=1.0, compact=c
                )
            )
    for variant in OPTION_VARIANTS:
        out[f"options/{variant}"] = lambda v=variant: snapshot(
            VIEW, scale=tiny, view="options", variant=v, delay=1.0
        )
    out["cascade/unique"] = lambda: snapshot(CASCADE, scale=tiny)
    for strategy in ("incremental", "dred", "recompute"):
        out[f"deletion/{strategy}"] = lambda s=strategy: snapshot(
            DELETION, maintenance=s
        )
    return out


def table1() -> dict[str, str]:
    model = CostModel()
    out = {op: repr(TABLE1_US[op]) for op in SIMPLE_UPDATE_PATH}
    out["simple_update_us"] = repr(model.simple_update_us())
    out["simple_update_tps"] = repr(model.simple_update_tps())
    return out


def collect() -> dict[str, Any]:
    return {"table1": table1(), **{name: run() for name, run in scenarios().items()}}


def _dump(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    with open(GOLDEN) as source:
        return json.load(source)


def test_table1_matches_golden(golden):
    assert table1() == golden["table1"]


@pytest.mark.parametrize("name", list(scenarios()))
def test_virtual_results_match_golden(golden, name):
    got = json.loads(_dump(scenarios()[name]()))
    want = golden[name]
    assert got == want, {
        section: {
            key: (want[section].get(key), value)
            for key, value in got[section].items()
            if want[section].get(key) != value
        }
        if isinstance(got[section], dict)
        else (want[section], got[section])
        for section in got
        if got[section] != want.get(section)
    }


def test_golden_covers_exactly_the_scenarios(golden):
    assert set(golden) == {"table1", *scenarios()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as out:
        out.write(_dump(collect()))
    print(f"wrote {GOLDEN}")
