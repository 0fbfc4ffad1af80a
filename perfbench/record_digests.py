"""Record the default-seed output digests that run.py checks.

    python3 perfbench/record_digests.py

Runs every topic of the ``sessions`` workload through every model x budget
(400 sessions), one ``ingest`` pass and one ``tune`` cycle at the default
seed and sizes, checks
them like a benchmark run would, and writes ``perfbench/digests.json``.  It
also prints the full quality table (MAP@1000 and NDCG@20 per model x
budget over all topics).  Re-record only when a change to the program is
meant to change its run files, session logs, reports, normalized terms or
index contents, and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets nothing up at import)
import workloads  # noqa: E402


def main() -> int:
    workdir = run.OUT / "record-digests"
    workloads.clean(workdir)
    workdir.mkdir(parents=True)
    try:
        sessions = workloads.SessionsWorkload(workdir, run.DEFAULT_SEED)
        sessions.setup()
        records = []
        # 25 units of 16 sessions pair every topic with every model x budget
        for unit in range(len(sessions.topics)):
            records += sessions.run_unit(unit)
        sessions.verify(records, None)
        ingest = workloads.IngestWorkload(workdir, run.DEFAULT_SEED)
        ingest.prepare()
        ingest_records = ingest.run_unit(0)
        tune = workloads.TuneWorkload(workdir, run.DEFAULT_SEED)
        tune.setup()
        tune_records = tune.run_unit(0)
        tune.verify(tune_records, None)
        failed = [r for r in records + ingest_records + tune_records if r.error]
        for r in failed:
            print(f"FAILED {r.kind} {r.key}: {r.error}", file=sys.stderr)
        if failed:
            return 1
        digests = {
            "seed": run.DEFAULT_SEED,
            "sessions": {r.key: sessions.session_digest(r.output) for r in records},
            "ingest": ingest_records[-1].output,
            "tune": {path: workloads.sha256(data)
                     for r in tune_records for path, data in sorted(r.output.items())},
        }
        (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"{'model/budget':16s}{'MAP':>8s}{'NDCG@20':>9s}  ({len(sessions.topics)} topics)")
        for combo, cell in sessions.summary(records)["quality"].items():
            print(f"{combo:16s}{cell['map']:8.4f}{cell['ndcg20']:9.4f}")
        return 0
    finally:
        workloads.clean(workdir)


if __name__ == "__main__":
    sys.exit(main())
