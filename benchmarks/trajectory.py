"""Append one entry to the committed performance trajectory, BENCH_pipeline.json.

Reads the result records that ``perfbench/run.py`` writes
(``perfbench/out/results/<workload>-seed<N>-trace{0,1}.json``, or copies of
them under any name) and appends one entry that holds:

- the commit, the source hash, ``nproc`` and the Python and NumPy versions,
  from the records' ``environment``;
- per workload, the median over its ``--trace 0`` records of ``wall_rel``,
  ``wall_s``, ``setup_s`` and ``peak_rss_mb``, with the seeds and the number
  of records behind them;
- per workload, the per-stage self times (every per-layer metric in seconds
  but the ``trace.*`` totals, median over its ``--trace 1`` records), leaving
  out stages that did not run.

All records must come from one commit and one source tree.

    python3 benchmarks/trajectory.py [RECORD_OR_DIRECTORY ...] [--out PATH]

With no paths it reads ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_rel", "wall_s", "setup_s", "peak_rss_mb")
ENVIRONMENT = ("commit", "src_sha256", "nproc", "python", "numpy")


def read_records(paths: list[Path]) -> list[dict]:
    files = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def entry(records: list[dict]) -> dict:
    """The trajectory entry of the records of one commit."""
    if not records:
        raise ValueError("no result records")
    envs = {tuple(r["environment"].get(k) for k in ENVIRONMENT) for r in records}
    if len(envs) > 1:
        raise ValueError(f"records from {len(envs)} different commits or environments")
    out = dict(zip(ENVIRONMENT, envs.pop()))
    workloads: dict[str, dict] = {}
    for name in sorted({r["workload"] for r in records}):
        untraced = [r for r in records if r["workload"] == name and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == name and r["trace"] == 1]
        row: dict = {}
        if untraced:
            row["seeds"] = sorted({r["seed"] for r in untraced})
            row["runs"] = len(untraced)
            for metric in END_TO_END:
                row[metric] = statistics.median(r["metrics"][metric]["value"]
                                                for r in untraced)
        if traced:
            stages = {}
            for metric, value in traced[0]["metrics"].items():
                if value["unit"] == "s" and not metric.startswith("trace."):
                    self_s = statistics.median(r["metrics"][metric]["value"] for r in traced)
                    if self_s > 0.0:
                        stages[metric] = self_s
            row["traced_runs"] = len(traced)
            row["stage_self_s"] = stages
        workloads[name] = row
    out["workloads"] = workloads
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[ROOT / "perfbench" / "out" / "results"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json")
    args = parser.parse_args(argv)
    try:
        new = entry(read_records(args.paths))
    except (OSError, ValueError, KeyError) as exc:
        print(f"trajectory: {exc!r}", file=sys.stderr)
        return 1
    trajectory = json.loads(args.out.read_text()) if args.out.exists() else []
    trajectory.append(new)
    args.out.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"appended entry {len(trajectory)} for commit {new['commit']} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
