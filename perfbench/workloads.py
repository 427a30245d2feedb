"""Seeded input generators, command lines and output checks of the workloads.

Each workload is a sequence of ``hyperrank`` CLI commands over inputs that
are generated here from a seed. The generators know their ground truth
(core size, arc count after splitting and dropping), so every check below
compares the program's output with an expectation that does not come from
the program's own code path, except where a check names the oracle it uses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WEIGHT_RANGE = (0.5, 5.0)
RANK_TOL = 1e-8  # inf-norm agreement demanded by acceptance criterion 2


# --------------------------------------------------------------------------
# network generation


@dataclass
class Network:
    """Named vertices plus arcs as (id, tail indices, head indices, weight)."""

    vertices: list[str]
    arc_ids: list[str]
    tails: list[tuple[int, ...]]
    heads: list[tuple[int, ...]]
    weights: list[float]

    @property
    def n_arcs(self) -> int:
        return len(self.arc_ids)


def distinct_draws(rng, pool: int, count: int, k: int) -> np.ndarray:
    """``count`` rows of ``k`` pairwise-distinct integers in [0, pool).

    Rows with a repeat are redrawn whole, which keeps every row uniform
    over k-subsets in random order. Cost is O(count·k) per round.
    """
    picks = rng.integers(0, pool, (count, k))
    bad = np.arange(count)
    while bad.size:
        s = np.sort(picks[bad], axis=1)
        bad = bad[(s[:, 1:] == s[:, :-1]).any(axis=1)]
        picks[bad] = rng.integers(0, pool, (bad.size, k))
    return picks


def synthetic_core(rng, n_vertices: int, n_arcs: int, side_max: int,
                   window: int | None = None) -> Network:
    """A full cycle (keeps every degree positive) plus random hyper-arcs.

    Each extra arc draws its tail and head sizes from 1..side_max, then one
    set of distinct vertices that it splits into tail and head. With
    ``window`` the vertices lie within ±window of a random centre on the
    ring, which makes the walk mix slowly.
    """
    n = n_vertices
    extra = n_arcs - n
    tails = [(i,) for i in range(n)]
    heads = [((i + 1) % n,) for i in range(n)]
    tail_sizes = rng.integers(1, side_max + 1, extra).tolist()
    head_sizes = rng.integers(1, side_max + 1, extra).tolist()
    if window is None:
        picks = distinct_draws(rng, n, extra, 2 * side_max)
    else:
        centres = rng.integers(0, n, extra)[:, None]
        offsets = distinct_draws(rng, 2 * window + 1, extra, 2 * side_max) - window
        picks = (centres + offsets) % n
    for row, t, h in zip(picks.tolist(), tail_sizes, head_sizes):
        tails.append(tuple(row[:t]))
        heads.append(tuple(row[t:t + h]))
    weights = rng.uniform(*WEIGHT_RANGE, n_arcs).tolist()
    return Network([f"v{i}" for i in range(n)], [f"e{j}" for j in range(n_arcs)],
                   tails, heads, weights)


def add_fringe(rng, net: Network, chains: int, depth: int) -> None:
    """Append ``chains`` source chains and as many sink chains to ``net``.

    A source chain s1 -> ... -> s_depth -> core and a sink chain
    core -> t1 -> ... -> t_depth each lose one vertex and one arc per prune
    round, so pruning takes exactly ``depth`` rounds and removes
    2·chains·depth vertices and as many arcs.
    """
    n_core = len(net.vertices)
    anchors = rng.integers(0, n_core, 2 * chains).tolist()
    weights = rng.uniform(*WEIGHT_RANGE, 2 * chains * depth).tolist()
    w = iter(weights)

    def add_arc(tail, head):
        net.arc_ids.append(f"e{len(net.arc_ids)}")
        net.tails.append((tail,))
        net.heads.append((head,))
        net.weights.append(next(w))

    for c in range(chains):
        first = len(net.vertices)
        net.vertices.extend(f"s{c}_{d}" for d in range(1, depth + 1))
        for d in range(depth - 1):
            add_arc(first + d, first + d + 1)
        add_arc(first + depth - 1, anchors[c])
    for c in range(chains):
        first = len(net.vertices)
        net.vertices.extend(f"t{c}_{d}" for d in range(1, depth + 1))
        add_arc(anchors[chains + c], first)
        for d in range(depth - 1):
            add_arc(first + d, first + d + 1)


def canonical_json(net: Network, rng) -> str:
    """The network as canonical JSON, vertices and arcs in a seeded order."""
    vorder = rng.permutation(len(net.vertices)).tolist()
    names = net.vertices
    arcs = [{"id": net.arc_ids[j],
             "tail": [names[i] for i in net.tails[j]],
             "head": [names[i] for i in net.heads[j]],
             "weight": net.weights[j]}
            for j in rng.permutation(net.n_arcs).tolist()]
    return json.dumps({"vertices": [names[i] for i in vorder], "arcs": arcs})


def transition_nnz(net: Network, n_core: int) -> int:
    """nnz(P) on the first ``n_core`` vertices: distinct (tail, head) vertex pairs."""
    return len({u * n_core + v for t, h in zip(net.tails, net.heads)
                if max(t) < n_core and max(h) < n_core for u in t for v in h})


def stationary_reference(net: Network, damping: float, n_core: int) -> np.ndarray:
    """Stationary vector of the two-stage walk on the first ``n_core`` vertices.

    Built from flat arrays with ``np.bincount``, independently of the
    package's dict-based transition matrix, and iterated far past the
    CLI's stopping tolerance. Arcs touching other vertices are ignored.
    """
    keep = [j for j in range(net.n_arcs)
            if max(net.tails[j]) < n_core and max(net.heads[j]) < n_core]
    w = np.array([net.weights[j] for j in keep])
    t_arc = np.repeat(np.arange(len(keep)), [len(net.tails[j]) for j in keep])
    t_v = np.array([u for j in keep for u in net.tails[j]])
    h_arc = np.repeat(np.arange(len(keep)), [len(net.heads[j]) for j in keep])
    h_v = np.array([v for j in keep for v in net.heads[j]])
    h_size = np.bincount(h_arc, minlength=len(keep))
    d_tail = np.bincount(t_v, weights=w[t_arc], minlength=n_core)
    step = w[t_arc] / d_tail[t_v]
    x = np.full(n_core, 1.0 / n_core)
    for _ in range(100000):
        flow = np.bincount(t_arc, weights=x[t_v] * step, minlength=len(keep))
        y = np.bincount(h_v, weights=(flow / h_size)[h_arc], minlength=n_core)
        y = damping * y + (1.0 - damping) / n_core
        y /= y.sum()
        done = np.abs(y - x).sum() < 1e-15
        x = y
        if done:
            break
    return x


# --------------------------------------------------------------------------
# command results and checks


@dataclass
class Result:
    """What one command produced: exit code, streams and its -o file."""

    returncode: int
    stdout: bytes
    stderr: bytes
    output: bytes | None = None

    def key(self) -> str:
        h = hashlib.sha256()
        for part in (self.stdout, self.stderr, self.output or b""):
            h.update(hashlib.sha256(part).digest())
        return h.hexdigest()


@dataclass
class Command:
    name: str          # the CLI subcommand
    argv: list[str]
    output: Path | None = None


@dataclass
class Inputs:
    """The generated input file plus the ground truth the checks compare against."""

    path: Path
    sha256: str
    sizes: dict[str, int]
    truth: dict = field(default_factory=dict)


def _write(path: Path, text: str) -> str:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _parse_rank(stdout: str, expected_rows: int) -> tuple[list[str], list[float]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "rank\tvertex\tvalue":
        raise ValueError("missing rank header")
    if len(lines) != expected_rows + 1:
        raise ValueError(f"{len(lines) - 1} rank rows, expected {expected_rows}")
    names, values = [], []
    for i, line in enumerate(lines[1:], start=1):
        pos, name, value = line.split("\t")
        if int(pos) != i:
            raise ValueError(f"row {i} is numbered {pos}")
        names.append(name)
        values.append(float(value))
    return names, values


def check_rank(stdout: str, reference: dict[str, float], rows: int) -> list[str]:
    """Top rows match the reference within RANK_TOL, in order, none missing."""
    try:
        names, values = _parse_rank(stdout, rows)
    except ValueError as exc:
        return [f"rank output: {exc}"]
    errors = []
    if len(set(names)) != len(names):
        errors.append("rank output repeats a vertex")
    if any(b > a for a, b in zip(values, values[1:])):
        errors.append("rank rows are not in descending order")
    for name, value in zip(names, values):
        if name not in reference:
            errors.append(f"rank output names {name!r}, which has no reference rank")
        elif abs(reference[name] - value) > RANK_TOL:
            errors.append(f"rank of {name} is {value!r}, reference {reference[name]!r}")
    ranked = sorted(reference.values(), reverse=True)
    if rows < len(ranked) and values and ranked[rows] > values[-1] + RANK_TOL:
        errors.append("rank output omits a vertex ranked above its last row")
    return errors


def _stderr_value(stderr: str, prefix: str) -> str | None:
    for line in stderr.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Base: subclasses generate inputs, list commands and check one result."""

    name = ""
    why = ""
    default_sizes: dict = {}

    def __init__(self, sizes: dict | None = None):
        self.sizes = dict(self.default_sizes, **(sizes or {}))

    def generate(self, seed: int, workdir: Path) -> Inputs:
        raise NotImplementedError

    def commands(self, inputs: Inputs, workdir: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, cmd: Command, res: Result, inputs: Inputs) -> list[str]:
        raise NotImplementedError


class RankPrune(Workload):
    name = "rank_prune_20k"
    why = ("rank --prune on 20k-vertex JSON: load, validate, prune, transition "
           "and top-k are Python object construction; kernels do almost nothing")
    default_sizes = {"core_vertices": 20000, "core_arcs": 60000, "side_max": 5,
                     "chains": 500, "depth": 4}

    def generate(self, seed, workdir):
        s = self.sizes
        rng = np.random.default_rng([seed, 1])
        net = synthetic_core(rng, s["core_vertices"], s["core_arcs"], s["side_max"])
        add_fringe(rng, net, s["chains"], s["depth"])
        path = workdir / "rank_prune.json"
        sha = _write(path, canonical_json(net, rng))
        n_core = s["core_vertices"]
        pi = stationary_reference(net, 0.85, n_core)
        removed = 2 * s["chains"] * s["depth"]
        return Inputs(
            path, sha,
            {"vertices": len(net.vertices), "arcs": net.n_arcs,
             "core_vertices": n_core, "core_arcs": s["core_arcs"],
             "nnz_P": transition_nnz(net, n_core)},
            {"reference": dict(zip(net.vertices[:n_core], pi.tolist())),
             "pruned_line": f"pruned to {n_core} vertices, {s['core_arcs']} arcs",
             "prune_events": 2 * removed, "prune_rounds": s["depth"]})

    def commands(self, inputs, workdir):
        return [Command("rank", ["rank", str(inputs.path), "--prune",
                                 "--damping", "0.85", "--precision", "full",
                                 "--top", "10"])]

    def check(self, cmd, res, inputs):
        truth = inputs.truth
        stderr = res.stderr.decode("utf-8", "replace")
        errors = check_rank(res.stdout.decode("utf-8", "replace"),
                            truth["reference"], 10)
        lines = stderr.splitlines()
        events = [ln for ln in lines if ln.startswith("prune round ")]
        if len(events) != truth["prune_events"]:
            errors.append(f"{len(events)} prune events, expected {truth['prune_events']}")
        rounds = {ln.split(":")[0] for ln in events}
        if len(rounds) != truth["prune_rounds"]:
            errors.append(f"{len(rounds)} prune rounds, expected {truth['prune_rounds']}")
        if truth["pruned_line"] not in lines:
            errors.append(f"stderr lacks {truth['pruned_line']!r}")
        return errors


class IngestReactions(Workload):
    name = "ingest_reactions_20k"
    why = ("reaction text to canonical JSON on the same network: parse, "
           "convert, validate and serialise; no walk, pruning or kernels")
    default_sizes = dict(RankPrune.default_sizes, reversible_every=5,
                         duplicate_every=7, boundary=1000)

    def generate(self, seed, workdir):
        s = self.sizes
        rng = np.random.default_rng([seed, 2])
        net = synthetic_core(rng, s["core_vertices"], s["core_arcs"], s["side_max"])
        add_fringe(rng, net, s["chains"], s["depth"])
        names = net.vertices
        lines, expected = [], {}
        reversible = duplicates = 0
        for j in rng.permutation(net.n_arcs).tolist():
            tail = [names[i] for i in net.tails[j]]
            head = [names[i] for i in net.heads[j]]
            rid, w = net.arc_ids[j], net.weights[j]
            expected_tail, expected_head = frozenset(tail), frozenset(head)
            if j % s["duplicate_every"] == 0:
                tail.append(tail[0])
                duplicates += 1
            if j % s["reversible_every"] == 0:
                arrow = "<->"
                reversible += 1
                expected[f"{rid}_fwd"] = (expected_tail, expected_head, w)
                expected[f"{rid}_rev"] = (expected_head, expected_tail, w)
            else:
                arrow = "->"
                expected[rid] = (expected_tail, expected_head, w)
            lines.append(f"{rid}: {' + '.join(tail)} {arrow} {' + '.join(head)} @ {w!r}")
        anchors = rng.integers(0, len(names), s["boundary"]).tolist()
        for k, a in enumerate(anchors):
            side = names[a]
            lines.insert(int(rng.integers(0, len(lines) + 1)),
                         f"x{k}: {side} ->" if k % 2 else f"x{k}: -> {side}")
        path = workdir / "ingest.reactions"
        sha = _write(path, "\n".join(lines) + "\n")
        return Inputs(
            path, sha,
            {"vertices": len(names), "arcs": len(expected),
             "records": len(lines)},
            {"arcs": expected, "vertices": frozenset(names),
             "duplicates": duplicates, "reversible": reversible,
             "dropped": s["boundary"]})

    def commands(self, inputs, workdir):
        out = workdir / "ingest_out.json"
        return [Command("ingest", ["ingest", str(inputs.path), "-o", str(out)],
                        out)]

    def check(self, cmd, res, inputs):
        truth = inputs.truth
        stderr = res.stderr.decode("utf-8", "replace")
        errors = []
        reversible = truth["reversible"]
        for prefix, want in (("arcs: ", len(truth["arcs"])),
                             ("vertices: ", len(truth["vertices"])),
                             ("reversible records: ",
                              f"{reversible} (split into {2 * reversible} arcs)"),
                             ("collapsed duplicate mentions: ", truth["duplicates"])):
            got = _stderr_value(stderr, prefix)
            if got != str(want):
                errors.append(f"stderr {prefix.strip()} {got!r}, expected {want}")
        dropped = sum(ln.startswith("dropped record ") for ln in stderr.splitlines())
        if dropped != truth["dropped"]:
            errors.append(f"{dropped} records dropped, expected {truth['dropped']}")
        text = (res.output or b"").decode("utf-8", "replace")
        try:
            doc = json.loads(text)
            arcs = {a["id"]: (frozenset(a["tail"]), frozenset(a["head"]), a["weight"])
                    for a in doc["arcs"]}
            vertices = doc["vertices"]
        except (ValueError, KeyError, TypeError) as exc:
            return errors + [f"ingest output is not canonical JSON: {exc}"]
        if len(vertices) != len(set(vertices)) or set(vertices) != truth["vertices"]:
            errors.append("ingest output vertices differ from the generated species")
        if len(arcs) != len(doc["arcs"]) or arcs != truth["arcs"]:
            errors.append("ingest output arcs differ from the generated reactions")
        from hyperrank.errors import HyperrankError
        from hyperrank.ingest import load_canonical, save_canonical
        try:
            again = save_canonical(load_canonical(text))
        except HyperrankError as exc:
            return errors + [f"ingest output does not load: {exc}"]
        if again != text:
            errors.append("ingest output does not round-trip byte-identically")
        return errors


class Crosscheck(Workload):
    name = "crosscheck_500"
    why = ("slow-mixing 500-vertex ring: thousands of SpMV power iterations per "
           "command, dense Laplacians and a 4M-step walk; ingest and pruning do ~nothing")
    default_sizes = {"vertices": 500, "arcs": 1500, "side_max": 3, "window": 15,
                     "steps": 4000000}

    def generate(self, seed, workdir):
        from hyperrank.ingest import load_canonical
        from hyperrank.walk import build_transition, stationary_dense_oracle
        s = self.sizes
        rng = np.random.default_rng([seed, 3])
        net = synthetic_core(rng, s["vertices"], s["arcs"], s["side_max"], s["window"])
        path = workdir / "crosscheck.json"
        text = canonical_json(net, rng)
        sha = _write(path, text)
        oracle = stationary_dense_oracle(build_transition(load_canonical(text)))
        return Inputs(
            path, sha,
            {"vertices": s["vertices"], "arcs": s["arcs"],
             "nnz_P": transition_nnz(net, s["vertices"])},
            {"reference": oracle.as_dict(), "steps": s["steps"]})

    def commands(self, inputs, workdir):
        net = str(inputs.path)
        n = str(inputs.sizes["vertices"])
        return [
            Command("rank", ["rank", net, "--precision", "full", "--top", n]),
            Command("laplacian", ["laplacian", net, "--kind", "symmetric"]),
            Command("simulate", ["simulate", net, "--steps", str(inputs.truth["steps"]),
                                 "--seed", "7"]),
        ]

    def check(self, cmd, res, inputs):
        reference = inputs.truth["reference"]
        stdout = res.stdout.decode("utf-8", "replace")
        if cmd.name == "rank":
            return check_rank(stdout, reference, len(reference))
        if cmd.name == "laplacian":
            return self._check_laplacian(stdout, reference)
        return self._check_simulate(stdout, reference)

    @staticmethod
    def _check_laplacian(stdout: str, reference: dict[str, float]) -> list[str]:
        n = len(reference)
        try:
            L = np.array(stdout.split(), dtype=float).reshape(n, n)
        except ValueError as exc:
            return [f"laplacian output is not a {n}x{n} matrix: {exc}"]
        errors = []
        if not np.array_equal(L, L.T):
            errors.append("laplacian output is not symmetric")
        # canonical vertex order is the JSON's vertex order, which the
        # oracle's dict preserves
        root = np.sqrt(np.array(list(reference.values())))
        residual = float(np.abs(L @ root).max())
        if residual > 1e-6:
            errors.append(f"L_sym·sqrt(oracle pi) residual {residual:.3e} > 1e-6")
        return errors

    @staticmethod
    def _check_simulate(stdout: str, reference: dict[str, float]) -> list[str]:
        lines = stdout.splitlines()
        if len(lines) != len(reference) + 1 or not lines[-1].startswith("# tv_distance\t"):
            return [f"simulate output has {len(lines)} lines, expected "
                    f"{len(reference) + 1} ending in the tv_distance line"]
        try:
            freq = {v: float(x) for v, x in (ln.split("\t") for ln in lines[:-1])}
            tv = float(lines[-1].split("\t")[1])
        except ValueError as exc:
            return [f"simulate output: {exc}"]
        errors = []
        if list(freq) != list(reference):
            errors.append("simulate output vertices differ from the input's order")
        # frequencies are printed at 4 decimals, so each may be off by 5e-5
        gap = 0.5 * sum(abs(freq.get(v, 0.0) - p) for v, p in reference.items())
        slack = 0.5 * 5e-5 * len(reference) + 1e-6
        if abs(gap - tv) > slack:
            errors.append(f"tv_distance {tv} disagrees with the oracle gap {gap:.6f}")
        if tv > 0.05:
            errors.append(f"tv_distance {tv} > 0.05")
        return errors


WORKLOADS = {w.name: w for w in (RankPrune, IngestReactions, Crosscheck)}
