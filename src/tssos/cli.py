"""Command line interface.

Three subcommands:

* solve  -- parse a .pop file, build the sparse relaxation, solve it
* bench  -- generate a benchmark family instance and run the pipeline
* report -- print the clique census and variable counts without solving

Exit codes: 0 on success (solver reached optimal), 1 on input errors,
2 when the solver finished without an optimal status.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .assembly import (
    assemble_dense_constrained,
    assemble_dense_unconstrained,
    assemble_sparse_constrained,
    assemble_sparse_unconstrained,
    solve_relaxation,
)
from .basis import reduce_basis_constrained, standard_basis
from .bench import (
    CONSTRAINT_SETS,
    FAMILIES,
    BenchSpec,
    emit_table,
    min_half_degree,
    run_pipeline,
    unconstrained_basis,
)
from .graphs import clique_report, iterate_constrained, iterate_unconstrained
from .poly import ParseError, parse_pop
from .sdpa import export_sdpa
from .solver import SolverConfig

MODE_NAMES = {"chordal": "approx_min", "minfill": "min_fill", "block": "block_closure"}


def _read_pop(args):
    """Parse args.file and resolve the default basis from what it holds."""
    with open(args.file, "r", encoding="utf-8") as fh:
        pop = parse_pop(fh.read())
    if args.basis is None:
        # newton for unconstrained input, standard once constraints are present
        args.basis = "standard" if pop.constraints else "newton"
    return pop


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tol_gap=args.tol,
        tol_feas=args.tol,
        max_iters=args.max_iters,
        verbose=args.verbose,
    )


def _build_relaxation(pop, args):
    """Shared solve/report plumbing; returns (sdp, seq, d_hat, basis_sizes)."""
    mode = MODE_NAMES[args.mode]
    k = args.sparse_order
    if k < 1:
        raise ValueError("--sparse-order must be >= 1")
    if pop.constraints:
        if args.basis == "newton":
            raise ValueError("--basis newton applies to unconstrained problems only")
        d_min = min_half_degree(pop)
        d_hat = args.order if args.order is not None else d_min
        if d_hat < d_min:
            raise ValueError(f"--order {d_hat} is below the minimum feasible order {d_min}")
        if args.dense:
            if args.basis == "reduced":
                raise ValueError("--dense always uses the standard basis; drop --basis reduced")
            sdp = assemble_dense_constrained(pop, d_hat, side=args.side)
            return sdp, None, d_hat, (len(standard_basis(pop.nvars, d_hat)), None)
        moment_basis = None
        if args.basis == "reduced":
            moment_basis = reduce_basis_constrained(pop, d_hat, k=k, mode=mode)
        seq = iterate_constrained(pop, d_hat, k=k, mode=mode, moment_basis=moment_basis)
        sdp = assemble_sparse_constrained(pop, d_hat, seq.at(k), side=args.side)
        bs = len(seq.levels[0][0].basis)
        rbs = len(moment_basis) if moment_basis else None
        return sdp, seq, d_hat, (bs, rbs)
    f = pop.objective
    basis, bs, rbs = unconstrained_basis(f, args.basis, args.order)
    if args.dense:
        sdp = assemble_dense_unconstrained(f, basis, side=args.side)
        return sdp, None, None, (bs, rbs)
    seq = iterate_unconstrained(f, basis, k=k, mode=mode)
    sdp = assemble_sparse_unconstrained(f, basis, seq.at(k)[0], side=args.side)
    return sdp, seq, None, (bs, rbs)


def _size_census(sizes: List[int]) -> str:
    counts: dict = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1
    return " ".join(f"{s}x{counts[s]}" for s in sorted(counts, reverse=True))


def cmd_solve(args) -> int:
    pop = _read_pop(args)
    sdp, seq, d_hat, (bs, rbs) = _build_relaxation(pop, args)

    if args.export_sdpa or args.solver == "external":
        path = args.export_sdpa or args.file + ".dat-s"
        export_sdpa(sdp, path)
        if args.solver == "external":
            if not args.solution:
                print(f"wrote {path}; run an SDPA-format solver on it, then pass "
                      f"--solution RESULT.json to read the objective back")
                return 0
            with open(args.solution, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            _, offset, readout = sdp.canonical()
            key = "primal_obj" if readout == "primal" else "dual_obj"
            if key not in payload:
                raise ValueError(f"solution file is missing {key!r}")
            bound = offset - float(payload[key])
            status = payload.get("status", "unknown")
            out = {"bound": bound, "status": status, "side": args.side, "solver": "external"}
            print(json.dumps(out, indent=2) if args.json else
                  f"bound:  {bound:.10g}\nstatus: {status} (external)")
            return 0 if status == "optimal" else 2

    res = solve_relaxation(sdp, _solver_config(args))
    payload = res.to_dict()
    payload["bs"] = bs
    if rbs is not None:
        payload["rbs"] = rbs
    if d_hat is not None:
        payload["order"] = d_hat
    payload["sparse_order"] = args.sparse_order
    if seq is not None:
        payload["stabilized_at"] = seq.stabilized_at
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"bound:      {res.bound:.10g}")
        print(f"status:     {res.status}")
        print(f"side:       {res.side}")
        print(f"blocks:     {len(res.block_sizes)} ({_size_census(res.block_sizes)})")
        print(f"equalities: {res.n_equalities}")
        print(f"iterations: {res.iterations}")
        print(f"time:       {res.solve_seconds:.3f} s")
        if seq is not None and seq.stabilized_at is not None:
            print(f"stabilized: yes (k = {seq.stabilized_at})")
    return 0 if res.status == "optimal" else 2


def cmd_report(args) -> int:
    pop = _read_pop(args)
    mode = MODE_NAMES[args.mode]
    k_max = args.sparse_order
    report: dict = {"file": args.file, "nvars": pop.nvars, "mode": args.mode}
    if pop.constraints:
        if args.basis == "newton":
            raise ValueError("--basis newton applies to unconstrained problems only")
        d_min = min_half_degree(pop)
        d_hat = args.order if args.order is not None else d_min
        moment_basis = None
        if args.basis == "reduced":
            moment_basis = reduce_basis_constrained(pop, d_hat, k=k_max, mode=mode)
        seq = iterate_constrained(pop, d_hat, k=k_max, mode=mode, moment_basis=moment_basis)
        report["order"] = d_hat
    else:
        basis, _, _ = unconstrained_basis(pop.objective, args.basis, args.order)
        seq = iterate_unconstrained(pop.objective, basis, k=k_max, mode=mode)
    levels = {}
    for k in range(1, k_max + 1):
        stab = seq.stabilized_at is not None and k >= seq.stabilized_at
        levels[str(k)] = [clique_report(g, stab) for g in seq.at(k)]
    report["levels"] = levels
    report["stabilized_at"] = seq.stabilized_at
    last = seq.at(k_max)
    if pop.constraints:
        sdp = assemble_sparse_constrained(pop, report["order"], last, side=args.side)
    else:
        sdp = assemble_sparse_unconstrained(pop.objective, seq.levels[0][0].basis, last[0], side=args.side)
    report["sos_scalar_variables"] = sdp.scalar_variable_count()
    report["moment_scalar_variables"] = sdp.moment_variable_count()
    report["n_equalities"] = sdp.n_equalities
    print(json.dumps(report, indent=2))
    return 0


def cmd_bench(args) -> int:
    spec = BenchSpec(
        family=args.family,
        n=args.n,
        deg=args.deg,
        terms=args.terms,
        prob=args.prob,
        constraint=args.constraint,
        d_hat=args.order,
        k_max=args.sparse_order,
        mode=MODE_NAMES[args.mode],
        basis=args.basis,
        side=args.side,
        seed=args.seed,
    )
    rows = run_pipeline(spec)
    text = emit_table(rows, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0 if all(r.status == "optimal" for r in rows) else 2


def _add_common(p: argparse.ArgumentParser, basis_default: Optional[str]):
    p.add_argument("--order", type=int, default=None,
                   help="relaxation half degree (constrained problems; "
                        "also the standard-basis degree when --basis standard)")
    p.add_argument("--sparse-order", type=int, default=1, metavar="K",
                   help="sparsity iteration order k (default 1)")
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="chordal",
                   help="graph extension: chordal (approximately minimal), "
                        "minfill, or block (connected-component closure)")
    p.add_argument("--basis", choices=["newton", "standard", "reduced"],
                   default=basis_default,
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
    _add_common(ps, basis_default=None)
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
    _add_common(pr, basis_default=None)
    pr.set_defaults(func=cmd_report)

    pb = sub.add_parser("bench", help="run a benchmark family instance")
    pb.add_argument("family", choices=sorted(FAMILIES))
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--deg", type=int, default=None, help="total degree 2d (random families)")
    pb.add_argument("--terms", type=int, default=None)
    pb.add_argument("--prob", type=float, default=None)
    pb.add_argument("--constraint", choices=sorted(CONSTRAINT_SETS), default="none")
    pb.add_argument("--order", type=int, default=None)
    pb.add_argument("--sparse-order", type=int, default=1, metavar="K")
    pb.add_argument("--mode", choices=sorted(MODE_NAMES), default="chordal")
    pb.add_argument("--basis", choices=["newton", "standard", "reduced"], default=None)
    pb.add_argument("--side", choices=["sos", "moment"], default="sos")
    pb.add_argument("--seed", type=int, required=True)
    pb.add_argument("--format", choices=["markdown", "json", "csv"], default="markdown")
    pb.add_argument("--out", metavar="PATH", default=None)
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
