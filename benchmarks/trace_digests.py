"""Regenerate the trained-fence 8x8 JSONL traces and check their digests.

Two traces pin the guard's full decision stream end to end:

* ``robustness`` — ``run_robustness_matrix(rows_values=(8,))``;
* ``chaos`` — ``run_chaos_matrix(rows_values=(8,), fault_scenarios=
  ("dropout_silent", "link_faults"))``.

Each runs in its own process under the recipe ``REPRO_TRACE=jsonl``, an
empty ``REPRO_CACHE_DIR`` (so the fence is trained from scratch),
``REPRO_WORKERS=1`` and ``OPENBLAS_NUM_THREADS=1``, with every other
``REPRO_*`` variable unset, all inside a temporary directory.  The SHA-256,
byte size and per-kind event counts of each trace, and the trained 8x8
detector's ``benign_calibration`` (read from the run's cache sidecar and
kept as ``float.hex``, so every bit counts), are compared with
``benchmarks/results/trace_digests.json``; on a difference the counts say
which kind of event moved, and the exit code is 1.  A change that moves a
trace on purpose re-records the file with ``--record`` and says why.

    PYTHONPATH=src python benchmarks/trace_digests.py            # check (~30 s)
    PYTHONPATH=src python benchmarks/trace_digests.py --record   # re-record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "trace_digests.json"

RECIPE = (
    "REPRO_TRACE=jsonl, empty REPRO_CACHE_DIR, REPRO_WORKERS=1, "
    "OPENBLAS_NUM_THREADS=1, no other REPRO_* variable; one process per trace"
)

CALLS = {
    "robustness": "run_robustness_matrix(rows_values=(8,))",
    "chaos": (
        "run_chaos_matrix(rows_values=(8,), "
        "fault_scenarios=('dropout_silent', 'link_faults'))"
    ),
}


def generate(name: str, work: Path) -> Path:
    """Run one matrix under the recipe; returns its single trace file."""
    trace_dir = work / f"trace-{name}"
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env.update(
        REPRO_TRACE="jsonl",
        REPRO_TRACE_DIR=str(trace_dir),
        REPRO_CACHE_DIR=str(work / f"cache-{name}"),
        REPRO_WORKERS="1",
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        ),
    )
    script = (
        "from repro.experiments.robustness import (\n"
        "    run_chaos_matrix, run_robustness_matrix,\n"
        ")\n"
        f"{CALLS[name]}\n"
        "from repro.obs.bus import BUS\n"
        "BUS.flush()\n"
    )
    subprocess.run([sys.executable, "-c", script], env=env, cwd=work, check=True)
    traces = sorted(trace_dir.glob("*.jsonl"))
    if len(traces) != 1:
        raise RuntimeError(f"{name}: expected one trace file, found {len(traces)}")
    return traces[0]


def calibration(name: str, work: Path) -> str:
    """The run's detector ``benign_calibration`` as ``float.hex``."""
    sidecars = sorted((work / f"cache-{name}").rglob("*.calibration.json"))
    if len(sidecars) != 1:
        raise RuntimeError(f"{name}: {len(sidecars)} calibration sidecars, expected 1")
    return float(json.loads(sidecars[0].read_text())["benign_calibration"]).hex()


def digest(name: str, work: Path) -> dict:
    """SHA-256, byte size, per-kind event counts and detector calibration."""
    data = generate(name, work).read_bytes()
    kinds = Counter(json.loads(line)["kind"] for line in data.splitlines())
    return {
        "call": CALLS[name],
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "events": dict(sorted(kinds.items())),
        "benign_calibration": calibration(name, work),
    }


def differences(name: str, got: dict, want: dict) -> list[str]:
    problems = []
    for field in ("sha256", "bytes", "benign_calibration"):
        if got[field] != want.get(field):
            problems.append(f"{name}: {field} {got[field]} != recorded {want.get(field)}")
    for kind in sorted(set(got["events"]) | set(want["events"])):
        have, had = got["events"].get(kind, 0), want["events"].get(kind, 0)
        if have != had:
            problems.append(f"{name}: {have} '{kind}' events, recorded {had}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help="rewrite the results file"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        results = {name: digest(name, Path(scratch)) for name in CALLS}
    if args.record:
        RESULTS.write_text(
            json.dumps({"recipe": RECIPE, "traces": results}, indent=2) + "\n"
        )
        print(f"recorded {RESULTS.relative_to(ROOT)}")
        return 0
    recorded = json.loads(RESULTS.read_text())["traces"]
    problems = []
    for name, got in results.items():
        print(
            f"{name}: sha256 {got['sha256']} ({got['bytes']} bytes), "
            f"benign_calibration {got['benign_calibration']}"
        )
        problems += differences(name, got, recorded[name])
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
