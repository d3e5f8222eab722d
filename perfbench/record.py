"""Record reference rows for ``run.py`` (only when behaviour changes on purpose).

Run from the root of a checkout::

    python3 perfbench/record.py --workload chaos-8x8 --training-seeds 7 2 3

Each training seed gets one cold set-up and one driver call; its rows and
fingerprint replace that seed's entry in ``reference.json``.  Rows whose
defense misses an attacker or fences an innocent node are printed and not
stored: pool seeds must contain every variant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from run import BLAS_THREAD_VARS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--training-seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    entries = reference.setdefault(workload.name, {})
    work_root = Path.cwd() / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    for seed in args.training_seeds:
        config = replace(workload.config(0), seed=seed)
        with tempfile.TemporaryDirectory(dir=work_root) as cache_dir:
            engine = workloads.make_engine(Path(cache_dir))
            workload.setup(config, engine)
            points = workload.run(config, engine)
        rows = workloads.table_rows(points)
        outcomes = workloads.outcome_metrics(points, config)
        contained = all(row["contained"] for row in rows)
        print(f"{workload.name} seed {seed}: contained={contained} {json.dumps(outcomes)}")
        if contained:
            entries[str(seed)] = {"fingerprint": workloads.fingerprint(rows), "rows": rows}
    work_root.rmdir()
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
