"""Command-line pipeline: ingest, validate, rank, laplacian, simulate.

Standard output carries only data (TSV or JSON); every diagnostic goes to
standard error. Exit status is 0 exactly when the requested artifact was
produced and all checked invariants held.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import DirectedHypergraph, prune_to_core
from .errors import (DanglingVertexError, DenseLimitExceededError,
                     HyperrankError, NoConvergenceError, NotStationaryError,
                     ValidationError)
from .ingest import (SPLIT, REVERSIBLE_POLICIES, IngestReport, _trim_heap, canonical_blocks,
                     load_canonical, parse_reactions_text, reactions_to_hypergraph)
from .laplacian import build_laplacians, spectral_report
from .sparse import SparseRealMatrix
from .walk import (DENSE_LIMIT, L1, NORMALIZATIONS, build_transition,
                   pagerank_power, simulate_walk, stationary_dense_oracle,
                   top_k, tv_distance)


_SLICE = 1 << 20  # the most characters _write_output writes at once


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _fmt(value: float, precision: str) -> str:
    return f"{value:.4f}" if precision == "4" else repr(float(value))


def _write_output(chunks, path: str | None) -> None:
    """Write the strings of ``chunks``, in order, to standard output or PATH.

    ``chunks`` may be a generator: it is drawn as it is written, so only
    the string at hand is held. A string is written in slices of at most
    ``_SLICE`` characters, so its encoding is never copied whole.
    """
    slices = (chunk[i:i + _SLICE] for chunk in chunks for i in range(0, len(chunk), _SLICE))
    if path is None or path == "-":
        sys.stdout.writelines(slices)
    else:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(slices)


def _read_input(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load(ns) -> tuple[DirectedHypergraph, IngestReport | None]:
    """The input network and, for reaction text, its ingest report.

    The input text is handed on as a temporary, so the loader holds its one
    reference: a reaction text is dropped once parsed, and a JSON text is
    held while its arcs are decoded, slice by slice, and dropped before the
    layout is built.
    """
    if ns.format == "json":
        return load_canonical(_read_input(ns.input)), None
    return reactions_to_hypergraph(parse_reactions_text(_read_input(ns.input)),
                                   ns.reversible)


def _note_collapsed(report: IngestReport) -> None:
    sys.stderr.write("".join(
        f"WARNING reaction {rid}: {count} duplicate species mention(s) collapsed\n"
        for rid, count in report.collapsed))


def _log_ingest(report: IngestReport) -> None:
    _note_collapsed(report)
    _note(f"records: {report.records}")
    _note(f"vertices: {report.vertices}")
    _note(f"arcs: {report.arcs}")
    _note(f"reversible records: {report.reversible_records} "
          f"(split into {report.split_arcs} arcs)")
    _note(f"collapsed duplicate mentions: {report.collapsed_duplicates}")
    sys.stderr.write("".join(f"dropped record {rid}: {reason}\n"
                             for rid, reason in report.dropped))


def _network(ns) -> DirectedHypergraph:
    """The input network, its ingest notes written, pruned with --prune;
    the heap is trimmed after the load and after the pruning."""
    hg, report = _load(ns)
    _trim_heap()
    if report is not None:
        _log_ingest(report)
    if not ns.prune:
        return hg
    pruned, events = prune_to_core(hg)
    del hg
    sys.stderr.write("".join(
        f"prune round {ev.round}: removed {ev.kind} {ev.identifier} ({ev.reason})\n"
        for ev in events))
    _note(f"pruned to {pruned.n_vertices} vertices, {pruned.n_arcs} arcs")
    _trim_heap()
    return pruned


def cmd_ingest(ns) -> int:
    """Write the ingest notes, then the network as canonical JSON block by
    block, over a heap trimmed after the load; an invalid network raises
    before the output is opened."""
    hg, report = _load(ns)
    _trim_heap()
    if report is None:  # canonical JSON: one record per arc
        report = IngestReport(records=hg.n_arcs, vertices=hg.n_vertices,
                              arcs=hg.n_arcs)
    _log_ingest(report)
    _write_output(canonical_blocks(hg), ns.output)
    return 0


def cmd_validate(ns) -> int:
    try:
        hg, report = _load(ns)
    except ValidationError as exc:
        for violation in exc.report.violations:
            print(str(violation))
        return 1
    if report is not None:
        _note_collapsed(report)
    print("ok")
    _note(f"{hg.n_vertices} vertices, {hg.n_arcs} arcs")
    return 0


def cmd_rank(ns) -> int:
    P = build_transition(_network(ns))
    rank = pagerank_power(P, damping=ns.damping, tolerance=ns.tol,
                          max_iterations=ns.max_iters).with_normalization(ns.norm)
    if ns.top > P.n:
        _note(f"WARNING top_k clamped from {ns.top} to the {P.n} available vertices")
    rows = top_k(rank, ns.top, round_to=4 if ns.precision == "4" else None)
    lines = ["rank\tvertex\tvalue"]
    lines += [f"{i}\t{vertex}\t{_fmt(value, ns.precision)}"
              for i, (vertex, value) in enumerate(rows, start=1)]
    _write_output(["\n".join(lines) + "\n"], ns.output)
    return 0


def _laplacian_tsv(matrix: SparseRealMatrix):
    """The lines of a Laplacian's TSV, one row of the matrix at a time.

    Up to DENSE_LIMIT vertices, the dense n×n table. Above it, the header
    ``row col value``, then one line per stored entry, row-major with
    ascending columns; the positions count from 0 in canonical vertex
    order, and the fields are tab-separated like the dense table's.
    """
    ptr = matrix.indptr.tolist()
    dense = matrix.rows <= DENSE_LIMIT
    if not dense:
        yield "row\tcol\tvalue\n"
    for u, (a, b) in enumerate(zip(ptr, ptr[1:])):
        entries = zip(matrix.indices[a:b].tolist(), matrix.data[a:b].tolist())
        if dense:
            cells = ["0.0"] * matrix.cols
            for v, x in entries:
                cells[v] = repr(x)
            yield "\t".join(cells) + "\n"
        else:
            yield "".join([f"{u}\t{v}\t{x!r}\n" for v, x in entries])


def cmd_laplacian(ns) -> int:
    P = build_transition(_network(ns))
    pi = pagerank_power(P, damping=ns.damping, tolerance=ns.tol,
                        max_iterations=ns.max_iters)
    try:
        pair = build_laplacians(P, pi)
    except NotStationaryError as exc:
        if ns.damping == 1.0:
            raise
        _note(f"hyperrank: {exc}")
        _note("hint: the Laplacians need the undamped stationary vector; "
              "drop --damping")
        return 1
    matrix = pair.unnormalized if ns.kind == "unnormalized" else pair.symmetric_normalized
    report = spectral_report(pair)
    for line in report.lines():
        _note(line)
    _write_output(_laplacian_tsv(matrix), ns.output)
    if not report.within():
        _note("laplacian invariants exceeded tolerance")
        return 1
    return 0


def cmd_simulate(ns) -> int:
    hg = _network(ns)
    if ns.start is not None:
        start = ns.start
    elif hg.vertices:
        start = hg.vertices[0]
    else:
        raise ValueError("the network has no vertices to walk on")
    P = build_transition(hg)
    try:
        pi = pagerank_power(P, damping=ns.damping, tolerance=ns.tol,
                            max_iterations=ns.max_iters)
    except NoConvergenceError as exc:
        fallback = "power iteration did not converge; comparing against the dense solve"
        try:
            pi = stationary_dense_oracle(P)
        except DenseLimitExceededError:
            raise exc from None  # no fallback was made; the damping hint applies
        except HyperrankError:
            _note(fallback)
            raise
        _note(fallback)
    empirical = simulate_walk(hg, start, ns.steps, ns.seed)
    lines = [f"{v}\t{_fmt(freq, ns.precision)}" for v, freq in empirical.items()]
    lines.append(f"# tv_distance\t{tv_distance(empirical, pi):.6f}")
    _write_output(["\n".join(lines) + "\n"], ns.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperrank",
        description="Random-walk ranking and Laplacians for directed hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format):
        p.add_argument("input", help="path to the input network file")
        p.add_argument("--format", choices=("reactions", "json"),
                       default=default_format,
                       help=f"input format (default: {default_format})")
        p.add_argument("--reversible", choices=REVERSIBLE_POLICIES, default=SPLIT,
                       help="how reversible reactions become arcs (default: split)")
        p.add_argument("-o", "--output", default=None, metavar="PATH",
                       help="write data there instead of standard output")

    def add_power_flags(p):
        p.add_argument("--prune", action="store_true",
                       help="prune to the positive-degree core first")
        p.add_argument("--damping", type=float, default=1.0, metavar="F")
        p.add_argument("--tol", type=float, default=1e-10, metavar="F")
        p.add_argument("--max-iters", type=int, default=10000, metavar="N")

    p = sub.add_parser("ingest", help="parse a network and emit canonical JSON")
    add_common(p, "reactions")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("validate", help="check a network against all invariants")
    add_common(p, "json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rank", help="rank vertices by the stationary walk distribution")
    add_common(p, "json")
    add_power_flags(p)
    p.add_argument("--norm", choices=NORMALIZATIONS, default=L1)
    p.add_argument("--precision", choices=("4", "full"), default="4")
    p.add_argument("--top", type=int, default=10, metavar="K")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("laplacian", help="emit a walk Laplacian as TSV")
    add_common(p, "json")
    add_power_flags(p)
    p.add_argument("--kind", choices=("unnormalized", "symmetric"),
                   default="unnormalized")
    p.set_defaults(func=cmd_laplacian)

    p = sub.add_parser("simulate", help="Monte Carlo walk and its empirical distribution")
    add_common(p, "json")
    add_power_flags(p)
    p.add_argument("--precision", choices=("4", "full"), default="4")
    p.add_argument("--steps", type=int, default=1000000, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--start", default=None, metavar="VERTEX",
                   help="start vertex (default: first in canonical order)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except NoConvergenceError as exc:
        _note(f"hyperrank: {exc}")
        _note("hint: try --damping 0.85")
        return 1
    except DanglingVertexError as exc:
        _note(f"hyperrank: {exc}")
        _note("hint: run with --prune")
        return 1
    except (HyperrankError, ValueError, OSError) as exc:
        _note(f"hyperrank: {exc}")
        return 1
    except MemoryError as exc:
        _note(f"hyperrank: {str(exc) or 'out of memory'}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
