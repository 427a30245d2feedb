"""benchmarks/trajectory.py on synthetic perfbench result records."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"
_spec = importlib.util.spec_from_file_location("trajectory", _SCRIPT)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

ENV = {"kernel_backend": "python", "nproc": 2, "cpu_count": 2, "python": "3.11.7",
       "numpy": "2.4.6", "machine": "x86_64", "commit": "abc123", "src_sha256": "f00d"}


def _record(path, seed, trace, **values):
    units = {"wall_rel": "ref", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "core.validate.calls": "count", "trace.wall_s": "s"}
    metrics = {name: {"value": value, "unit": units.get(name, "s"), "samples": 5}
               for name, value in values.items()}
    path.write_text(json.dumps({"workload": "rank_prune_20k", "seed": seed, "trace": trace,
                                "environment": ENV, "attempted": 5, "failed": 0,
                                "metrics": metrics}))


def test_appends_medians_and_stage_self_times(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    for seed, (rel, rss) in enumerate([(5.0, 120.0), (4.0, 118.0), (6.0, 119.0)], start=1):
        _record(results / f"rank_prune_20k-seed{seed}-trace0.json", seed, 0,
                wall_rel=rel, wall_s=rel / 5, setup_s=0.1 * seed, peak_rss_mb=rss)
    _record(results / "rank_prune_20k-seed1-trace1.json", 1, 1,
            **{"ingest.load_canonical.s": 0.25, "walk.simulate_walk.s": 0.0,
               "core.validate.calls": 4, "trace.wall_s": 0.6})
    out = tmp_path / "BENCH_pipeline.json"
    assert trajectory.main([str(results), "--out", str(out)]) == 0
    assert trajectory.main([str(results / "rank_prune_20k-seed2-trace0.json"),
                            "--out", str(out)]) == 0
    first, second = json.loads(out.read_text())
    assert first == {
        "commit": "abc123", "src_sha256": "f00d", "nproc": 2, "python": "3.11.7",
        "numpy": "2.4.6",
        "workloads": {"rank_prune_20k": {
            "seeds": [1, 2, 3], "runs": 3, "wall_rel": 5.0, "wall_s": 1.0,
            "setup_s": 0.2, "peak_rss_mb": 119.0, "traced_runs": 1,
            "stage_self_s": {"ingest.load_canonical.s": 0.25}}}}
    assert second["workloads"]["rank_prune_20k"]["wall_rel"] == 4.0


def test_refuses_records_of_two_commits(tmp_path, capsys):
    _record(tmp_path / "a.json", 1, 0, wall_rel=5.0, wall_s=1.0, setup_s=0.1, peak_rss_mb=1.0)
    other = json.loads((tmp_path / "a.json").read_text())
    other["environment"] = dict(ENV, commit="def456")
    (tmp_path / "b.json").write_text(json.dumps(other))
    out = tmp_path / "BENCH_pipeline.json"
    assert trajectory.main([str(tmp_path), "--out", str(out)]) == 1
    assert "2 different commits" in capsys.readouterr().err
    assert not out.exists()
