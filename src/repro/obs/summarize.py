"""Trace-summary CLI: decision timelines and report cross-checks.

Reads the JSONL event stream a traced run wrote (``REPRO_TRACE=jsonl``),
renders a per-episode decision timeline — every detection, conviction,
engagement, rollback, release, sanitizer intervention and fault activation
with its (cycle, window) coordinates — and optionally cross-checks the
trace against a :class:`~repro.defense.report.DefenseReport` serialization:
the event counts derived from the trace must match both the report's
``event_counts`` summary and its event log.  A mismatch means the flight
recorder and the report disagree about what the defense did, and the CLI
exits non-zero so CI can gate on it.

Usage::

    python -m repro.obs.summarize TRACE.jsonl [TRACE2.jsonl ...]
        [--report report.json] [--episode N] [--windows]

``TRACE`` arguments may also be directories, in which case every
``trace-*.jsonl`` inside is read (the per-pid files of a sweep).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.defense.report import COUNTED_EVENTS, tally

__all__ = ["load_events", "trace_counts", "crosscheck_report", "main"]

#: Decision kinds shown on the default timeline (per-window "window"
#: summaries are opt-in via --windows; captures are transport noise).
TIMELINE_KINDS = (
    "detected",
    "convicted",
    "conviction_lapsed",
    "engaged",
    "rolled_back",
    "released",
    "window_sanitized",
    "detour_discount",
    "fault_activated",
)


def load_events(paths: list[str | Path]) -> list[dict]:
    """Parse events from JSONL files (directories expand to trace-*.jsonl)."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found = sorted(path.glob("trace-*.jsonl"))
            if not found:
                raise FileNotFoundError(f"no trace-*.jsonl files under {path}")
            files.extend(found)
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(str(path))
    events: list[dict] = []
    for path in files:
        with open(path, encoding="utf-8") as stream:
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ValueError(f"{path}:{lineno}: not JSON ({error})") from None
                if not isinstance(event, dict) or "kind" not in event:
                    raise ValueError(f"{path}:{lineno}: not a trace event")
                events.append(event)
    return events


def episodes_of(events: list[dict]) -> list[int]:
    return sorted({int(event.get("episode", 0)) for event in events})


def trace_counts(events: list[dict]) -> dict[str, int]:
    """The report's ``event_counts`` summary, rederived from the trace.

    Counts with the guard's own rule, :func:`repro.defense.report.tally`.
    """
    counts = dict.fromkeys(COUNTED_EVENTS.values(), 0)
    for event in events:
        counted = tally(event["kind"], event)
        if counted is not None:
            counts[counted[0]] += counted[1]
    return counts


def _node_totals(events) -> dict[str, int]:
    """Node totals of the engaged / rolled_back / convicted events."""
    totals = {"engaged": 0, "rolled_back": 0, "convicted": 0}
    for event in events:
        if event.get("kind") in totals:
            totals[event["kind"]] += len(event.get("nodes", ()))
    return totals


def crosscheck_report(events: list[dict], report: dict) -> list[str]:
    """Mismatches between a trace and a ``DefenseReport`` dict (empty = ok).

    ``report`` is either ``DefenseReport.as_dict()`` or ``to_payload()``
    output — both carry ``events`` and ``event_counts``.
    """
    problems: list[str] = []
    derived = trace_counts(events)
    recorded = report.get("event_counts") or {}
    for key, value in recorded.items():
        if derived.get(key, 0) != value:
            problems.append(
                f"event_counts[{key}]: report says {value}, trace says "
                f"{derived.get(key, 0)}"
            )
    trace_totals = _node_totals(events)
    for kind, total in _node_totals(report.get("events", ())).items():
        if trace_totals[kind] != total:
            problems.append(
                f"{kind} nodes: report events total {total}, trace total "
                f"{trace_totals[kind]}"
            )
    return problems


def _describe(event: dict) -> str:
    skip = ("schema", "kind", "episode", "cycle", "window")
    fields = []
    for key in sorted(event):
        if key in skip:
            continue
        value = event[key]
        if isinstance(value, float):
            value = f"{value:g}"
        fields.append(f"{key}={value}")
    return " ".join(fields)


def timeline_lines(
    events: list[dict], episode: int, include_windows: bool = False
) -> list[str]:
    """Human-readable decision timeline of one episode."""
    kinds = set(TIMELINE_KINDS)
    if include_windows:
        kinds.add("window")
    selected = [
        event
        for event in events
        if int(event.get("episode", 0)) == episode and event["kind"] in kinds
    ]
    lines = [f"episode {episode}: {len(selected)} decision events"]
    for event in selected:
        lines.append(
            f"  win {event.get('window', -1):>4}  cycle {event.get('cycle', -1):>7}"
            f"  {event['kind']:<18} {_describe(event)}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.summarize",
        description="Render a trace's decision timeline; cross-check a report.",
    )
    parser.add_argument(
        "traces", nargs="+", help="trace .jsonl file(s) or directories of them"
    )
    parser.add_argument(
        "--report",
        help="DefenseReport JSON (as_dict/to_payload output) to cross-check",
    )
    parser.add_argument(
        "--episode", type=int, help="only render this episode's timeline"
    )
    parser.add_argument(
        "--windows",
        action="store_true",
        help="include per-window summary events in the timeline",
    )
    args = parser.parse_args(argv)

    try:
        events = load_events(args.traces)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    schemas = {event.get("schema") for event in events}
    print(
        f"{len(events)} events, episodes {episodes_of(events) or '-'}, "
        f"schema {sorted(schemas) if schemas else '-'}"
    )
    targets = (
        [args.episode] if args.episode is not None else episodes_of(events)
    )
    for episode in targets:
        for line in timeline_lines(events, episode, include_windows=args.windows):
            print(line)
    print("totals:", json.dumps(trace_counts(events), sort_keys=True))

    if args.report:
        try:
            report = json.loads(Path(args.report).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read report: {error}", file=sys.stderr)
            return 2
        problems = crosscheck_report(events, report)
        if problems:
            print("cross-check FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("cross-check ok: trace and report agree")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
