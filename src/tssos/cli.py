"""Command line interface.

Three subcommands:

* solve  -- parse a .pop file, build the sparse relaxation, solve it
* bench  -- generate a benchmark family instance and run the pipeline
* report -- print the clique census and variable counts without solving

Exit codes: 0 on success (solver reached optimal), 1 on input errors and
when memory runs out, 2 when the solver finished without an optimal status.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Optional

from .assembly import assemble, solve_relaxation
from .bench import (
    CONSTRAINT_SETS,
    FAMILIES,
    BenchSpec,
    RunOptions,
    build_relaxation,
    emit_table,
    json_text,
    run_pipeline,
)
from .graphs import clique_report
from .poly import ParseError, parse_pop
from .sdpa import export_sdpa
from .solver import SolverConfig

MODE_NAMES = {"chordal": "approx_min", "minfill": "min_fill", "block": "block_closure"}


def _read_pop(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        return parse_pop(fh.read())


def _solver_config(args) -> SolverConfig:
    if args.max_iters < 1:
        raise ValueError(f"--max-iters must be at least 1, got {args.max_iters}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    return SolverConfig(tol=args.tol, max_iters=args.max_iters, verbose=args.verbose)


def _run_options(args) -> RunOptions:
    return RunOptions(
        order=args.order,
        k_max=args.sparse_order,
        mode=MODE_NAMES[args.mode],
        basis=args.basis,
        side=args.side,
        dense=args.dense,
    )


def _size_census(sizes: List[int]) -> str:
    counts: dict = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    return " ".join(f"{s}x{counts[s]}" for s in sorted(counts, reverse=True))


def cmd_solve(args) -> int:
    if args.solution and args.solver != "external":
        raise ValueError("--solution needs --solver external")
    config = _solver_config(args)
    pop = _read_pop(args)
    rel = build_relaxation(pop, _run_options(args))
    sdp = assemble(pop, rel.cliques(args.sparse_order), side=args.side)

    if args.export_sdpa or args.solver == "external":
        path = args.export_sdpa or args.file + ".dat-s"
        export_sdpa(sdp, path)
        if args.solver == "external":
            if not args.solution:
                print(f"wrote {path}; run an SDPA-format solver on it, then pass "
                      f"--solution RESULT.json to read the objective back")
                return 0
            with open(args.solution, "r", encoding="utf-8") as fh:
                # integers as floats: one beyond double range reads as inf, not an OverflowError
                payload = json.load(fh, parse_int=float)
            key = sdp.readout
            if not isinstance(payload, dict):
                raise ValueError("solution file is not a JSON object")
            if key not in payload:
                raise ValueError(f"solution file is missing {key!r}")
            value = payload[key]
            if not isinstance(value, float) or math.isnan(value):
                raise ValueError(f"solution file's {key!r} is not a number: {value!r}")
            bound = sdp.bound(payload)
            status = payload.get("status", "unknown")
            out = {"bound": bound, "status": status, "side": args.side, "solver": "external"}
            print(json_text(out) if args.json else
                  f"bound:  {bound:.10g}\nstatus: {status} (external)")
            return 0 if status == "optimal" else 2

    res = solve_relaxation(sdp, config)
    payload = res.to_dict()
    payload["bs"] = rel.bs
    if rel.rbs is not None:
        payload["rbs"] = rel.rbs
    if rel.order is not None:
        payload["order"] = rel.order
    payload["sparse_order"] = args.sparse_order
    if rel.seq is not None:
        payload["stabilized_at"] = rel.seq.stabilized_at
    if args.json:
        print(json_text(payload))
    else:
        print(f"bound:      {res.bound:.10g}")
        print(f"status:     {res.status}")
        print(f"side:       {res.side}")
        print(f"blocks:     {len(res.block_sizes)} ({_size_census(res.block_sizes)})")
        print(f"equalities: {res.n_equalities}")
        print(f"iterations: {res.iterations}")
        print(f"time:       {res.solve_seconds:.3f} s")
        if rel.seq is not None and rel.seq.stabilized_at is not None:
            print(f"stabilized: yes (k = {rel.seq.stabilized_at})")
    return 0 if res.status == "optimal" else 2


def cmd_report(args) -> int:
    pop = _read_pop(args)
    k_max = args.sparse_order
    rel = build_relaxation(pop, _run_options(args))
    report: dict = {"file": args.file, "nvars": pop.nvars, "mode": args.mode}
    if rel.order is not None:
        report["order"] = rel.order
    report["levels"] = {
        str(k): [clique_report(g, rel.stabilized(k)) for g in rel.seq.at(k)] for k in range(1, k_max + 1)
    }
    report["stabilized_at"] = rel.seq.stabilized_at
    sdp = assemble(pop, rel.cliques(k_max), side=args.side)
    report["sos_scalar_variables"] = sdp.scalar_variable_count()
    # one y_alpha per equality row
    report["moment_scalar_variables"] = sdp.n_equalities
    report["n_equalities"] = sdp.n_equalities
    print(json_text(report))
    return 0


def cmd_bench(args) -> int:
    spec = BenchSpec(
        family=args.family,
        n=args.n,
        deg=args.deg,
        terms=args.terms,
        prob=args.prob,
        constraint=args.constraint,
        seed=args.seed,
    )
    rows = run_pipeline(spec, _run_options(args))
    text = emit_table(rows, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0 if all(r.status == "optimal" for r in rows) else 2


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--order", type=int, default=None,
                   help="relaxation half degree (constrained problems; "
                        "also the standard-basis degree when --basis standard)")
    p.add_argument("--sparse-order", type=int, default=1, metavar="K",
                   help="sparsity iteration order k (default 1)")
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="chordal",
                   help="graph extension: chordal (approximately minimal), "
                        "minfill, or block (connected-component closure)")
    p.add_argument("--basis", choices=["newton", "standard", "reduced"],
                   help="monomial basis for the Gram/moment blocks")
    p.add_argument("--side", choices=["sos", "moment"], default="sos")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tssos",
        description="Sparse moment-SOS relaxations for polynomial optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a .pop problem file")
    ps.add_argument("file")
    _add_common(ps)
    ps.add_argument("--dense", action="store_true",
                    help="skip the sparsity graphs and solve the full relaxation")
    ps.add_argument("--export-sdpa", metavar="PATH", default=None,
                    help="also write the assembled problem in SDPA sparse format")
    ps.add_argument("--solver", choices=["embedded", "external"], default="embedded",
                    help="external writes an SDPA file and reads --solution instead")
    ps.add_argument("--solution", metavar="FILE", default=None,
                    help="JSON result file from an external solver")
    ps.add_argument("--json", action="store_true", help="machine readable output")
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--max-iters", type=int, default=200)
    ps.add_argument("--verbose", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("report", help="clique census and relaxation sizes, no solve")
    pr.add_argument("file")
    _add_common(pr)
    pr.set_defaults(func=cmd_report, dense=False)

    pb = sub.add_parser("bench", help="run a benchmark family instance")
    pb.add_argument("family", choices=sorted(FAMILIES))
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--deg", type=int, default=None, help="total degree 2d (random families)")
    pb.add_argument("--terms", type=int, default=None)
    pb.add_argument("--prob", type=float, default=None)
    pb.add_argument("--constraint", choices=sorted(CONSTRAINT_SETS), default="none")
    _add_common(pb)
    pb.add_argument("--seed", type=int, required=True)
    pb.add_argument("--format", choices=["markdown", "json", "csv"], default="markdown")
    pb.add_argument("--out", metavar="PATH", default=None)
    pb.set_defaults(func=cmd_bench, dense=False)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: main only parses with it."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
