"""The persisted perf trajectory: ``BENCH_*.json`` record / compare.

``python -m repro bench record`` runs the scenario fleet
(:mod:`repro.scenarios.fleet`) and writes one machine-readable
``BENCH_<date>_<host-fingerprint>.json`` capturing, per cell, the wall
time, kernel events (and events/sec), flit-hop totals, fingerprint and
verdict — so the ROADMAP's perf trajectory finally exists on disk
instead of in scrollback.  ``bench compare --against <file>`` replays
(or loads) a current run and exits non-zero when a cell's verdict
regressed, a cell disappeared, or its throughput dropped beyond the
tolerance — the CI regression gate (``fleet-smoke``).

Schema (``docs/benchmarks.md`` documents every field)::

    {"schema": "repro-bench/1",
     "recorded_at": "...", "host": {...}, "code_fingerprint": "...",
     "run": {"smoke": ..., "jobs": ..., ...},
     "cells": {"<cell id>": {"status": "ok", "verdict": "PASS",
               "wall_s": ..., "concurrency": ..., "events": ...,
               "events_per_s": ..., "flit_hops": ..., "sim_ns": ...,
               "fingerprint": ...}},
     "totals": {...}}

``concurrency`` is the mean number of fleet cells executing
concurrently with that cell (1.0 = uncontended; recorded only for
fresh, timestamped outcomes), and ``compare`` warns when the two
records were taken at different ``--jobs`` values — both guard against
silently comparing events/sec numbers skewed by worker contention.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .scenarios.fleet import CellOutcome, cell_id, code_fingerprint

__all__ = [
    "BENCH_SCHEMA",
    "bench_filename",
    "bench_payload",
    "compare_benches",
    "host_fingerprint",
    "load_bench",
    "trajectory_report",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench/1"

#: Default allowed fractional throughput drop before ``compare`` flags a
#: cell (0.3 = the current run may be up to 30% slower per cell).
DEFAULT_TOLERANCE = 0.3


def host_fingerprint() -> str:
    """Short stable digest of the recording host (part of the file
    name, so trajectories from different machines never collide)."""
    text = "|".join((platform.node(), platform.machine(),
                     platform.processor(), platform.python_version()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def _mean_concurrency(outcome: CellOutcome,
                      outcomes: Sequence[CellOutcome]) -> Optional[float]:
    """Mean number of fleet cells running concurrently with ``outcome``
    (itself included), time-averaged over its own execution window.

    1.0 means the cell ran alone — its events/sec is uncontended;
    anything higher quantifies how much the recording's ``--jobs``
    parallelism shared the machine with this cell.  ``None`` when the
    cell was served from cache (its stamps belong to some earlier run)
    or predates the timestamped schema.
    """
    if outcome.cached or outcome.ended_at <= outcome.started_at:
        return None
    span = outcome.ended_at - outcome.started_at
    shared = 0.0
    for other in outcomes:
        if other is outcome or other.cached:
            continue
        overlap = (min(outcome.ended_at, other.ended_at)
                   - max(outcome.started_at, other.started_at))
        if overlap > 0:
            shared += overlap
    return round(1.0 + shared / span, 2)


def _cell_entry(outcome: CellOutcome,
                concurrency: Optional[float] = None) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "status": outcome.status,
        "verdict": outcome.verdict,
        "wall_s": round(outcome.wall_s, 6),
    }
    if concurrency is not None:
        entry["concurrency"] = concurrency
    if outcome.status == "ok":
        result = outcome.result
        wall = outcome.wall_s
        entry.update(
            events=result["events"],
            events_per_s=(round(result["events"] / wall, 1)
                          if wall > 0 else None),
            flit_hops=result["flit_hops"],
            sim_ns=result["sim_ns"],
            fingerprint=result["fingerprint"],
        )
        if outcome.failures:
            entry["failures"] = list(outcome.failures)
    else:
        entry["reason"] = outcome.reason
    return entry


def bench_payload(outcomes: Sequence[CellOutcome],
                  run_info: Optional[Dict[str, Any]] = None,
                  fleet_wall_s: Optional[float] = None) -> Dict[str, Any]:
    """Assemble the ``BENCH_*.json`` document for one fleet run."""
    cells = {cell_id(outcome.cell):
             _cell_entry(outcome, _mean_concurrency(outcome, outcomes))
             for outcome in outcomes}
    ok = [o for o in outcomes if o.status == "ok"]
    events = sum(o.result["events"] for o in ok)
    cell_wall = sum(o.wall_s for o in outcomes)
    wall = fleet_wall_s if fleet_wall_s is not None else cell_wall
    return {
        "schema": BENCH_SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "fingerprint": host_fingerprint(),
            "node": platform.node(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "code_fingerprint": code_fingerprint(),
        "run": dict(run_info or {}),
        "cells": cells,
        "totals": {
            "cells": len(outcomes),
            "passed": sum(o.verdict == "PASS" for o in outcomes),
            "failed": sum(o.verdict == "FAIL" for o in outcomes),
            "skipped": sum(o.status == "skip" for o in outcomes),
            "errors": sum(o.status == "error" for o in outcomes),
            "events": events,
            "flit_hops": sum(o.result["flit_hops"] for o in ok),
            "cell_wall_s": round(cell_wall, 6),
            "fleet_wall_s": round(wall, 6),
            "events_per_s": (round(events / wall, 1) if wall > 0
                             else None),
        },
    }


def bench_filename(payload: Dict[str, Any]) -> str:
    """``BENCH_<date>_<host-fingerprint>.json`` — one file per host per
    day; re-recording the same day overwrites (the trajectory keeps the
    *last* run)."""
    date = payload["recorded_at"].split("T", 1)[0]
    return f"BENCH_{date}_{payload['host']['fingerprint']}.json"


def write_bench(payload: Dict[str, Any], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, bench_filename(payload))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict[str, Any]:
    """Load and schema-check one recorded trajectory point (raises
    ``ValueError`` on anything that is not a ``repro-bench/1`` file)."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) \
            or payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path} is not a {BENCH_SCHEMA} file "
            f"(schema: {payload.get('schema') if isinstance(payload, dict) else type(payload).__name__!r})")
    for field in ("cells", "totals", "host"):
        if field not in payload:
            raise ValueError(f"{path}: missing {field!r}")
    return payload


def compare_benches(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE
                    ) -> Tuple[List[str], List[str]]:
    """Compare a current run against a recorded baseline.

    Returns ``(regressions, notes)``.  Regressions (the CI gate):

    * a baseline ``ok`` cell missing from the current run — a silently
      shrunk matrix must never read as green;
    * a verdict downgrade (``PASS`` -> ``FAIL``/``ERROR``/``SKIP``);
    * per-cell throughput (events/sec) below
      ``baseline * (1 - tolerance)``.

    Fingerprint changes are *notes*, not regressions: the golden
    machinery owns fingerprint drift, and a legitimate code change
    re-records goldens and baseline together.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    regressions: List[str] = []
    notes: List[str] = []
    cur_jobs = (current.get("run") or {}).get("jobs")
    base_jobs = (baseline.get("run") or {}).get("jobs")
    if cur_jobs != base_jobs:
        notes.append(
            f"WARNING: job counts differ (current --jobs {cur_jobs}, "
            f"baseline --jobs {base_jobs}) — parallel recording skews "
            "per-cell events/sec, so throughput deltas below are not "
            "like-for-like")
    # Baselines recorded before the observability axis existed carry no
    # key; they were necessarily observability-off runs.
    cur_obs = _observability_of(current)
    base_obs = _observability_of(baseline)
    if cur_obs != base_obs:
        notes.append(
            f"WARNING: observability settings differ (current "
            f"{cur_obs!r}, baseline {base_obs!r}) — metrics/tracing "
            "overhead skews per-cell events/sec, so throughput deltas "
            "below are not like-for-like")
    current_cells = current["cells"]
    for name, base in sorted(baseline["cells"].items()):
        if base.get("status") != "ok":
            continue
        cur = current_cells.get(name)
        if cur is None:
            regressions.append(f"{name}: present in baseline but missing "
                               "from the current run")
            continue
        if base.get("verdict") == "PASS" and cur.get("verdict") != "PASS":
            reason = cur.get("reason") or "; ".join(
                cur.get("failures", ())) or "verdict changed"
            regressions.append(f"{name}: verdict PASS -> "
                               f"{cur.get('verdict')} ({reason})")
            continue
        base_rate = base.get("events_per_s")
        cur_rate = cur.get("events_per_s")
        if base_rate and cur_rate:
            floor = base_rate * (1.0 - tolerance)
            if cur_rate < floor:
                regressions.append(
                    f"{name}: {cur_rate:.0f} events/s < {floor:.0f} "
                    f"(baseline {base_rate:.0f}, tolerance "
                    f"{tolerance:.0%})")
        if base.get("fingerprint") and cur.get("fingerprint") \
                and base["fingerprint"] != cur["fingerprint"]:
            notes.append(f"{name}: fingerprint {base['fingerprint']} -> "
                         f"{cur['fingerprint']} (simulated work changed)")
    new = sorted(set(current_cells) - set(baseline["cells"]))
    if new:
        notes.append(f"{len(new)} new cell(s) not in baseline: "
                     + ", ".join(new))
    base_total = baseline["totals"].get("events_per_s")
    cur_total = current["totals"].get("events_per_s")
    if base_total and cur_total:
        notes.append(f"total throughput: {cur_total:.0f} events/s vs "
                     f"baseline {base_total:.0f} "
                     f"({cur_total / base_total:.2f}x)")
    return regressions, notes


def _observability_of(payload: Dict[str, Any]) -> str:
    return (payload.get("run") or {}).get("observability") or "off"


# -- trajectory report ------------------------------------------------------

#: Sparkline glyphs, lowest throughput to highest.
_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[Optional[float]]) -> str:
    """One glyph per trajectory point, normalized per row (``·`` marks a
    point where the cell has no throughput figure)."""
    present = [value for value in values if value is not None]
    if not present:
        return "·" * len(values)
    lo, hi = min(present), max(present)
    glyphs = []
    for value in values:
        if value is None:
            glyphs.append("·")
        elif hi == lo:
            glyphs.append(_SPARK[len(_SPARK) // 2])
        else:
            index = int((value - lo) / (hi - lo) * (len(_SPARK) - 1))
            glyphs.append(_SPARK[index])
    return "".join(glyphs)


def trajectory_report(paths: Sequence[str]) -> str:
    """Markdown report of per-cell events/sec and verdict trends across
    a series of recorded ``BENCH_*.json`` files.

    Points are ordered by ``recorded_at`` (file name as tie-break), one
    table row per cell id, with a per-row-normalized sparkline and the
    fractional change of the last point against the one before it.  The
    output is a pure function of the input files — no clocks, no host
    state — so regenerating the report is byte-identical.
    """
    if not paths:
        raise ValueError("trajectory_report needs at least one BENCH file")
    loaded = [(os.path.basename(path), load_bench(path)) for path in paths]
    loaded.sort(key=lambda item: (item[1].get("recorded_at", ""), item[0]))

    lines = ["# Bench trajectory", "",
             f"{len(loaded)} trajectory point(s):", ""]
    for index, (name, payload) in enumerate(loaded, 1):
        run = payload.get("run") or {}
        totals = payload["totals"]
        total_rate = totals.get("events_per_s")
        lines.append(
            f"{index}. `{name}` — {payload.get('recorded_at', '?')}, "
            f"jobs {run.get('jobs', '?')}, observability "
            f"{_observability_of(payload)}, "
            f"{totals.get('cells', '?')} cells, "
            + (f"{total_rate:.0f} events/s total"
               if total_rate else "no total throughput"))
    lines += ["", "| cell | trend | events/s (last) | Δ last | verdicts |",
              "|---|---|---:|---:|---|"]

    all_cells = sorted({cell for _name, payload in loaded
                        for cell in payload["cells"]})
    for cell in all_cells:
        rates: List[Optional[float]] = []
        verdicts: List[str] = []
        for _name, payload in loaded:
            entry = payload["cells"].get(cell)
            if entry is None:
                rates.append(None)
                verdicts.append("-")
            else:
                rates.append(entry.get("events_per_s") or None)
                verdicts.append((entry.get("verdict") or "?")[0])
        last = rates[-1]
        prev = next((rate for rate in reversed(rates[:-1])
                     if rate is not None), None)
        if last is not None and prev:
            delta = f"{(last - prev) / prev:+.1%}"
        else:
            delta = "-"
        last_text = f"{last:.0f}" if last is not None else "-"
        lines.append(f"| {cell} | {_sparkline(rates)} | {last_text} "
                     f"| {delta} | {''.join(verdicts)} |")
    lines.append("")
    return "\n".join(lines)
