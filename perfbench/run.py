"""End-to-end pipeline benchmark for the hyperrank CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Inputs are generated from ``--seed`` into a
scratch directory under ``perfbench/out/`` and deleted afterwards; the
program only ever sees those files.

With ``--trace 0`` every command of the workload runs as a fresh, untraced
``python -m hyperrank.cli`` subprocess, one at a time, in passes repeated
for ``--seconds`` after one discarded warm-up pass. Between passes a fresh
interpreter imports NumPy and then ``hyperrank.cli``, twice, for ``setup_s``
and for the start-up reference of ``wall_rel`` (see END_TO_END). The
end-to-end metrics are medians over passes. With ``--trace 1`` the same
commands run in-process through ``hyperrank.cli.main``, alternating
untraced passes with passes traced by ``spans.py``; the per-layer metrics
are medians over the traced passes, and the tracing overhead is the
difference between the two kinds of pass.

Every command's output is checked in every pass (see ``workloads.py``);
a nonzero exit or a failed check counts as a failed command, and
``error_rate`` is failed over attempted commands. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record, with the environment, the
sha256 of every input and every sample, goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import os

# Single-threaded baseline: pin BLAS/OpenMP pools before NumPy loads, here
# and in every child.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Result  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

SETUP_PER_PASS = 2
MIN_PASSES = 3
DEADLINE_S = 150.0  # whole run, so it ends inside a 180 s limit

# What --trace 0 reports. wall_rel is the median over passes of the pass's
# wall time divided by the mean time a fresh interpreter took to start and
# import NumPy just before and just after it: a shared host's speed drifts
# by tens of percent within minutes, and the ratio cancels that drift while
# staying proportional to the program's own time. Raw wall_s, the
# per-command medians (rank_s, ...) and start_ref_s go to the record.
END_TO_END = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# One setup sample: the child's wall time is setup_s; minus the time it
# prints (the hyperrank import alone) it is start_ref_s, which no change to
# the package can move.
SETUP_PROBE = ("import time, numpy; t = time.perf_counter(); import hyperrank.cli; "
               "print(time.perf_counter() - t)")

PER_LAYER_TIMES = [
    "cli.main.s", "cli.cmd.self_s",
    "ingest.load_canonical.s", "ingest.parse_reactions_text.s",
    "ingest.reactions_to_hypergraph.s", "ingest.save_canonical.s",
    "core.validate.s", "core.compute_degrees.s", "core.prune_to_core.s",
    "walk.build_transition.s", "sparse.SparseRealMatrix.init.s",
    "walk.pagerank_power.s", "kernels.csr_left_multiply.s",
    "kernels.walk_steps.s", "walk.simulate_walk.s",
    "laplacian.build_laplacians.s", "laplacian.spectral_report.s",
    "walk.top_k.s", "walk.tv_distance.s", "walk.stationary_dense_oracle.s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.unaccounted_s",
]
# rate name -> (time key, work key) in a traced pass's summary
PER_LAYER_RATES = {
    "kernels.csr_left_multiply.ns_per_nnz":
        ("kernels.csr_left_multiply.s", "kernels.csr_left_multiply.nnz"),
    "kernels.walk_steps.ns_per_step": ("kernels.walk_steps.s", "kernels.walk_steps.steps"),
}
# counts must repeat exactly between traced passes of one input
PER_LAYER_COUNTS = {
    "cli.stderr_lines": "count", "ingest.input_mb": "MB",
    "core.validate.calls": "count", "core.compute_degrees.calls": "count",
    "core.prune_to_core.rounds": "count", "core.prune_to_core.removed": "count",
    "sparse.nnz": "count", "walk.pagerank_power.iterations": "count",
    "kernels.csr_left_multiply.calls": "count",
    "kernels.csr_left_multiply.computed_mb": "MB-computed",
    "kernels.walk_steps.steps": "count", "laplacian.dense_mb": "MB-computed",
    "walk.stationary_dense_oracle.calls": "count",
}


def per_layer_units() -> dict[str, str]:
    return {**{n: "s" for n in PER_LAYER_TIMES},
            **{n: "ns" for n in PER_LAYER_RATES}, **PER_LAYER_COUNTS}


class Ledger:
    """Attempted and failed commands, with each failure's reasons.

    Outputs are cached by content: identical bytes are checked once. Every
    command's output must also be byte-identical to its first pass.
    """

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict[str, list[str]] = {}
        self._first: dict[int, str] = {}

    def record(self, index, cmd, res, label) -> None:
        self.attempted += 1
        if res.returncode != 0:
            tail = res.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            errors = [f"exit {res.returncode}: {' '.join(tail)}"]
        else:
            key = res.key()
            if key not in self._verdicts:
                self._verdicts[key] = self.workload.check(cmd, res, self.inputs)
            errors = list(self._verdicts[key])
            first = self._first.setdefault(index, key)
            if key != first:
                errors.append("output differs from the first pass")
        if errors:
            self.failures.append(f"{label} {cmd.name}: {'; '.join(errors)}")


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env.pop("HYPERRANK_PURE_PYTHON", None)
    env["PYTHONHASHSEED"] = "0"  # same str hashing, so same dict/set layouts, every run
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def more_passes(start, seconds, passes, deadline) -> bool:
    """True until MIN_PASSES ran and a typical pass no longer fits in ``seconds``."""
    now = perf_counter()
    if now >= deadline:
        return False
    if len(passes) < MIN_PASSES:
        return True
    return now - start + statistics.median(passes) <= seconds


class Launcher:
    """The small process that starts and times every subprocess (launcher.py)."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.terminate()  # the launcher kills and reaps its child first
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv, workdir, deadline):
        """Run one child to completion; returns (wall s, peak RSS MB, Result)."""
        out, err = workdir / "stdout", workdir / "stderr"
        request = [argv, str(out), str(err), deadline - perf_counter()]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        code, wall, maxrss_kib = json.loads(reply)
        return wall, maxrss_kib / 1024.0, Result(code, out.read_bytes(), err.read_bytes())


def _take_output(cmd, res) -> None:
    if cmd.output is not None:
        res.output = cmd.output.read_bytes() if cmd.output.exists() else b""
        cmd.output.unlink(missing_ok=True)


def untraced_run(workload, inputs, cmds, seconds, workdir, deadline):
    """Subprocess passes; returns the ledger and every sample by metric name."""
    with Launcher(child_env()) as launcher:
        return _untraced_passes(launcher, workload, inputs, cmds, seconds, workdir,
                                deadline)


def _untraced_passes(launcher, workload, inputs, cmds, seconds, workdir, deadline):
    ledger = Ledger(workload, inputs)
    base = [sys.executable, "-m", "hyperrank.cli"]
    samples = {name: [] for name in ["wall_rel", "wall_s", "setup_s", "start_ref_s",
                                     "peak_rss_mb"] + [f"{c.name}_s" for c in cmds]}

    def one_pass(label):
        results, rss = [], 0.0
        start = perf_counter()
        for cmd in cmds:
            wall, peak, res = launcher.run(base + cmd.argv, workdir, deadline)
            _take_output(cmd, res)
            results.append((wall, res))
            rss = max(rss, peak)
        elapsed = perf_counter() - start
        for i, (cmd, (_, res)) in enumerate(zip(cmds, results)):
            ledger.record(i, cmd, res, label)
        return elapsed, rss, [w for w, _ in results]

    def import_once():
        wall, _, res = launcher.run([sys.executable, "-c", SETUP_PROBE], workdir, deadline)
        if res.returncode != 0:
            raise RuntimeError("importing hyperrank.cli failed: "
                               + res.stderr.decode("utf-8", "replace"))
        samples["setup_s"].append(wall)
        samples["start_ref_s"].append(wall - float(res.stdout))

    one_pass("warm-up")
    import_once()
    start = perf_counter()
    while more_passes(start, seconds, samples["wall_s"], deadline):
        elapsed, rss, walls = one_pass(f"pass {len(samples['wall_s']) + 1}")
        samples["wall_s"].append(elapsed)
        samples["peak_rss_mb"].append(rss)
        for cmd, wall in zip(cmds, walls):
            samples[f"{cmd.name}_s"].append(wall)
        for _ in range(SETUP_PER_PASS):
            import_once()
        around = samples["start_ref_s"][-1 - SETUP_PER_PASS:]
        samples["wall_rel"].append(elapsed / statistics.fmean(around))
    return ledger, samples


def run_in_process(cmd, main):
    """One CLI command through hyperrank.cli.main with captured streams."""
    out, err = io.StringIO(), io.StringIO()
    logging.root.handlers.clear()  # main's basicConfig binds the current stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(cmd.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the subprocess would exit 1 with a traceback
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    res = Result(code, out.getvalue().encode(), err.getvalue().encode())
    _take_output(cmd, res)
    return res


def traced_run(workload, inputs, cmds, seconds, deadline):
    """In-process passes: the ledger, untraced pass walls, traced pass summaries
    and the spans of the first traced pass."""
    import hyperrank.cli as cli
    from spans import Tracer
    ledger = Ledger(workload, inputs)
    tracer = Tracer()

    def one_pass(label, traced):
        main = cli.main
        if traced:
            tracer.reset()
            tracer.install()
            main = tracer.wrap("cli.main", cli.main)
        start = perf_counter()
        try:
            results = [run_in_process(cmd, main) for cmd in cmds]
        finally:
            elapsed = perf_counter() - start
            tracer.uninstall()
        for i, (cmd, res) in enumerate(zip(cmds, results)):
            ledger.record(i, cmd, res, label)
        return elapsed, sum(len(r.stderr.splitlines()) for r in results)

    plain, traced, pairs, first_spans = [], [], [], []
    # keep the benchmark's own objects (inputs, expectations) out of the
    # collections the program triggers, as they would be in a subprocess
    gc.collect()
    gc.freeze()
    try:
        one_pass("warm-up", False)
        start = perf_counter()
        while more_passes(start, seconds, pairs, deadline):
            plain.append(one_pass(f"pass {len(plain) + 1}", False)[0])
            elapsed, lines = one_pass(f"traced pass {len(traced) + 1}", True)
            pairs.append(plain[-1] + elapsed)
            summary = tracer.summary()
            summary["trace.wall_s"] = elapsed
            summary["trace.unaccounted_s"] = elapsed - summary["trace.root_s"]
            summary["cli.stderr_lines"] = lines
            traced.append(summary)
            first_spans = first_spans or [list(span) for span in tracer.spans]
    finally:
        gc.unfreeze()
    return ledger, plain, traced, first_spans


def layer_metrics(plain, traced, ledger) -> dict[str, float]:
    """Medians of the traced passes' times and rates; counts must not vary."""
    def values(key):
        return [s.get(key, 0.0) for s in traced]

    metrics = {name: statistics.median(values(
        {"cli.cmd.self_s": "cli.cmd.s"}.get(name, name))) for name in PER_LAYER_TIMES}
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    # each traced pass directly follows its untraced twin; pairing cancels drift
    metrics["trace.overhead_s"] = statistics.median(
        s["trace.wall_s"] - p for s, p in zip(traced, plain))
    for name, (time_key, work_key) in PER_LAYER_RATES.items():
        metrics[name] = statistics.median(
            1e9 * s.get(time_key, 0.0) / s[work_key] if s.get(work_key) else 0.0
            for s in traced)
    for name in PER_LAYER_COUNTS:
        seen = values(name)
        if len(set(seen)) != 1:
            ledger.failures.append(f"count {name} varies between traced passes: {seen}")
        metrics[name] = seen[0]
    return metrics


def environment() -> dict:
    import hyperrank
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperrank").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"kernel_backend": hyperrank.KERNEL_BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "thread_pins": THREAD_PINS,
            "child_pythonhashseed": "0", "commit": commit,
            "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 sizes: dict | None = None) -> dict:
    """Generate, run and check one workload; returns its full record."""
    deadline = perf_counter() + DEADLINE_S
    workload = WORKLOADS[name](sizes)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        gen_start = perf_counter()
        inputs = workload.generate(seed, workdir)
        generate_s = perf_counter() - gen_start
        cmds = workload.commands(inputs, workdir)
        if trace:
            ledger, plain, traced, spans = traced_run(workload, inputs, cmds, seconds,
                                                      deadline)
            units = per_layer_units()
            values = layer_metrics(plain, traced, ledger)
            metrics = {n: {"value": values[n], "unit": units[n], "samples": len(traced)}
                       for n in units}
            samples = {"untraced_pass_s": plain, "traced_passes": traced,
                       "spans_first_traced_pass": spans}
        else:
            ledger, samples = untraced_run(workload, inputs, cmds, seconds, workdir,
                                           deadline)
            metrics = {n: {"value": statistics.median(v),
                           "unit": END_TO_END.get(n, "s"), "samples": len(v)}
                       for n, v in samples.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(ledger.failures)
    return {"workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
            "trace": trace, "environment": environment(), "generate_s": generate_s,
            "inputs": {"sha256": inputs.sha256, "sizes": inputs.sizes},
            "attempted": ledger.attempted, "failed": failed,
            "error_rate": failed / ledger.attempted, "failures": ledger.failures[:50],
            "metrics": metrics, "samples": samples}


def print_record(record: dict, path: Path) -> None:
    env = record["environment"]
    print(f"{record['workload']} seed {record['seed']}: {record['attempted']} commands, "
          f"{record['failed']} failed; backend {env['kernel_backend']}, "
          f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"commit {env['commit']}")
    print(f"  inputs {record['inputs']['sizes']} sha256 {record['inputs']['sha256']}")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")
    print(f"  {'error_rate':<40} {record['error_rate']:>14.6g} {'ratio':<12} "
          f"n={record['attempted']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<12} n={m['samples']}")
    print(f"  record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C (which no command's handler swallows), so a
    # terminated run still kills and reaps its child and removes its inputs
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "hyperrank" / "cli.py").is_file():
        print(f"perfbench: no hyperrank sources at {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = per_layer_units() if args.trace else END_TO_END
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    summary = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print_record(record, path)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary.update({prefix + n: {"value": record["metrics"][n]["value"],
                                     "unit": record["metrics"][n]["unit"]}
                        for n in wanted})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
