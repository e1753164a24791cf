"""Command-line entry point.

Subcommands: solve, relax, mwis, stacks, gen, export, bench, verify.
Exit codes: 0 success, 1 usage error, 2 input format error, 3 solver
failure (or a failed verification).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .bnb import fractional_chromatic, solve_chromatic, solve_stacks
from .errors import CircleColorError, InstanceFormatError
from .instances import format_certificate, generate_one, rows_to_csv, run_experiment
from .intervals import (
    build_clique_matrix,
    build_dag,
    build_graph,
    format_instance,
    load_instance,
    to_dimacs,
)
from .lpmodels import (
    build_as,
    build_cg,
    build_cl,
    export_model,
    metadata_sidecar,
)
from .mwis import solve_mwis
from .oracle import (
    MAX_VERTICES,
    STACKS_MAX_N,
    chromatic_exact,
    fractional_chromatic_exact,
    max_clique_exact,
    mwis_exact,
    stacks_exact,
    stacks_lp_exact,
)
from .simplex import SimplexOptions
from .stowage import build_cgh, effective_height, greedy_stack_plan

SCHEMA_VERSION = 1

USAGE_ERROR = 1
INPUT_ERROR = 2
SOLVER_ERROR = 3

NEGATIVE_LIST = re.compile(r"-[0-9.][0-9.eE+,-]*")


def _checked(kind, ok, what):
    """An argparse type: kind(text), which must satisfy ok."""
    def parse(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_tolerance = _checked(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")
# every number lies within 0.5 of an integer, so at 0.5 or more nothing branches
_int_tolerance = _checked(float, lambda x: 0 < x < 0.5, "a finite number > 0 and < 0.5")
_count = _checked(int, lambda k: k >= 1, "an integer >= 1")
# refused before the instance is read, so a bad path costs no solve
_output = _checked(str, lambda path: path and not os.path.isdir(path)
                   and os.path.isdir(os.path.dirname(path) or "."),
                   "a file path in an existing directory")
_oracle_size = _checked(int, lambda k: 1 <= k <= MAX_VERTICES,
                        f"an integer >= 1 and <= {MAX_VERTICES} (the oracle budget)")


def _counts(text):
    """A comma-separated list of _count values."""
    return [_count(x) for x in text.split(",")]


def _options_from_args(args) -> SimplexOptions:
    env = os.environ.get("CIRCLECOLOR_TOL")
    env = None if env is None else _tolerance(env)
    # a parsed tolerance is > 0, so only an omitted one is falsy
    return SimplexOptions(feas_tol=args.feas_tol or env or SimplexOptions.feas_tol,
                          opt_tol=args.opt_tol or env or SimplexOptions.opt_tol,
                          int_tol=getattr(args, "int_tol", None) or SimplexOptions.int_tol)


def _emit(args, payload: dict, human: str):
    if args.json:
        payload = dict(payload)
        payload["schema_version"] = SCHEMA_VERSION
        if getattr(args, "no_timing", False):
            payload.pop("timings", None)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _node_log(args):
    if args.verbose:
        return lambda line: print(line, file=sys.stderr)
    return None


def cmd_solve(args) -> int:
    rep = load_instance(args.instance)
    report = solve_chromatic(rep, _options_from_args(args), log=_node_log(args))
    payload = {
        "command": "solve",
        "chi": report.chromatic_number,
        "chi_f": report.fractional_chromatic,
        "root_gap": report.root_gap,
        "nodes": report.nodes_explored,
        "omega": len(report.clique) if args.clique else None,
        "coloring": {str(v): c for v, c in sorted(report.coloring.colors.items())},
        "timings": report.timings,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(format_certificate(report.coloring))
    human = f"chi={report.chromatic_number} chi_f={report.fractional_chromatic:g}"
    if args.clique:
        human += f" omega={payload['omega']}"
    _emit(args, payload, human)
    return 0


def cmd_relax(args) -> int:
    rep = load_instance(args.instance)
    timings = {}
    chi_f = fractional_chromatic(rep, _options_from_args(args), timings)
    payload = {
        "command": "relax",
        "chi_f": chi_f,
        "timings": timings,
    }
    _emit(args, payload, f"chi_f={chi_f:g}")
    return 0


def cmd_mwis(args) -> int:
    rep = load_instance(args.instance)
    if args.weights:
        try:
            parts = [float(x) for x in args.weights.split(",")]
        except ValueError:
            raise InstanceFormatError(f"weights must be numbers: {args.weights!r}") from None
        if len(parts) != rep.n:
            raise InstanceFormatError(f"expected {rep.n} weights, got {len(parts)}")
        if not all(map(math.isfinite, parts)):
            raise InstanceFormatError(f"weights must be finite: {args.weights!r}")
        weights = {v: parts[v - 1] for v in rep.vertices}
    else:
        weights = {v: 1.0 for v in rep.vertices}
    value, labels, witness = solve_mwis(rep, weights)
    payload = {
        "command": "mwis",
        "value": value,
        "set": sorted(witness),
        "labels": {str(v): labels[v] for v in sorted(labels)},
    }
    human = f"value={value:g} set={','.join(str(v) for v in sorted(witness)) or '-'}"
    _emit(args, payload, human)
    return 0


def cmd_stacks(args) -> int:
    rep = load_instance(args.instance)
    report = solve_stacks(rep, args.height, _options_from_args(args), log=_node_log(args))
    payload = {
        "command": "stacks",
        "height": args.height,
        "stacks": report.chromatic_number,
        "relaxation": report.fractional_chromatic,
        "nodes": report.nodes_explored,
        "plan": [list(s) for s in report.plan.stacks],
        "timings": report.timings,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.plan.format())
    _emit(args, payload, f"stacks={report.chromatic_number} height={args.height}")
    return 0


def cmd_gen(args) -> int:
    reps = [generate_one(args.n, args.seed, k) for k in range(args.count)]
    if args.output:
        for k, rep in enumerate(reps):
            path = args.output if args.count == 1 else f"{args.output}.{k:03d}"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(format_instance(rep))
        return 0
    payload = {
        "command": "gen",
        "instances": [[[rep.left[v], rep.right[v]] for v in rep.vertices] for rep in reps],
    }
    _emit(args, payload, "\n\n".join(format_instance(rep).rstrip("\n") for rep in reps))
    return 0


def _build_formulation(args, rep):
    if args.formulation == "cl":
        num = args.colors or greedy_stack_plan(rep, rep.n).num_stacks
        model = build_cl(build_graph(rep), num)
    elif args.formulation == "as":
        model = build_as(build_graph(rep))
    else:
        dag = build_dag(rep)
        matrix = build_clique_matrix(rep)
        if args.formulation == "cgh":
            model = build_cgh(rep, dag, matrix, effective_height(rep, args.height or 1))
        else:  # cg, the default
            model = build_cg(rep, dag, matrix)
    return model.relaxed() if args.relax else model


def cmd_export(args) -> int:
    if args.format == "dimacs":
        unread = {flag: "--format dimacs writes the graph, not a formulation"
                  for flag in ("formulation", "relax", "height", "colors")}
    else:
        unread = {flag: f"only --formulation {reader} reads it"
                  for flag, reader in (("height", "cgh"), ("colors", "cl"))
                  if args.formulation != reader}
    for flag, why in unread.items():
        if getattr(args, flag):  # unset is None or False; a set value is truthy
            build_parser().error(f"unrecognized arguments: --{flag} ({why})")
    rep = load_instance(args.instance)
    if args.format == "dimacs":
        data = to_dimacs(build_graph(rep)).encode()
        sidecar = None
    else:
        model = _build_formulation(args, rep)
        data = export_model(model, args.format)
        sidecar = metadata_sidecar(model)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
        if sidecar is not None:
            with open(args.output + ".meta.json", "w", encoding="utf-8") as fh:
                fh.write(sidecar)
    else:
        sys.stdout.write(data.decode())
    return 0


def cmd_bench(args) -> int:
    rows = run_experiment(args.n, args.samples, args.seed, _options_from_args(args))
    text = rows_to_csv(rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failed = sum(row.failures for row in rows)
    if failed:
        print(f"error: {failed} of {args.samples * len(rows)} instances failed", file=sys.stderr)
        return SOLVER_ERROR
    return 0


def cmd_verify(args) -> int:
    rng = np.random.Generator(np.random.Philox(key=np.array([args.seed, 2**32], dtype=np.uint64)))
    opts = _options_from_args(args)
    failures = []
    for k in range(args.trials):
        n = int(rng.integers(1, args.n_max + 1))
        rep = generate_one(n, args.seed, k)
        graph = build_graph(rep)
        report = solve_chromatic(rep, opts)
        chi = chromatic_exact(graph)
        if report.chromatic_number != chi:
            failures.append(f"trial {k}: chi {report.chromatic_number} != oracle {chi}")
        omega = max_clique_exact(graph)
        if len(report.clique) != omega:  # the clique the answer relied on
            failures.append(f"trial {k}: omega {len(report.clique)} != oracle {omega}")
        chi_f = fractional_chromatic_exact(graph)
        if abs(report.fractional_chromatic - chi_f) > 1e-6:
            failures.append(
                f"trial {k}: chi_f {report.fractional_chromatic} != oracle {chi_f}"
            )
        weights = {v: int(rng.integers(-5, 6)) for v in rep.vertices}
        value, _, _ = solve_mwis(rep, weights)
        brute = mwis_exact(graph, weights)
        if abs(value - brute) > 1e-6:
            failures.append(f"trial {k}: mwis {value} != oracle {brute}")
        if n <= STACKS_MAX_N:
            height = 1 + k % 3
            stacks = solve_stacks(rep, height, opts)
            exact = stacks_exact(rep, graph, height)
            if stacks.chromatic_number != exact:
                failures.append(f"trial {k}: stacks {stacks.chromatic_number} != oracle {exact}"
                                f" at H = {height}")
            lp = stacks_lp_exact(rep, graph, height)
            if abs(stacks.fractional_chromatic - lp) > 1e-6:
                failures.append(f"trial {k}: stacks LP {stacks.fractional_chromatic} != oracle {lp}"
                                f" at H = {height}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        return SOLVER_ERROR
    print(f"verify: {args.trials} trials passed (n <= {args.n_max})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="circlecolor",
        description="Coloring and stack planning for circle graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups, each attached only to the subcommands that read it
    def instance(p):
        p.add_argument("instance", help="instance file (n, then n lines 'l r')")

    def json_output(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def no_timing(p):
        p.add_argument("--no-timing", action="store_true", help="omit timing fields from JSON")

    def verbose(p):
        p.add_argument("-v", "--verbose", action="store_true", help="log solver nodes to stderr")

    def output(p, help):
        p.add_argument("-o", "--output", type=_output, help=help)

    def lp_tol(p):
        for flag in ("--feas-tol", "--opt-tol"):
            p.add_argument(flag, type=_tolerance)

    def int_tol(p):  # read only where branch-and-bound runs
        p.add_argument("--int-tol", type=_int_tolerance)

    def command(name, func, groups, help):
        p = sub.add_parser(name, help=help)
        for group in groups:
            group(p)
        p.set_defaults(func=func)
        return p

    branch_and_bound = (instance, json_output, no_timing, verbose, lp_tol, int_tol)

    p = command("solve", cmd_solve, branch_and_bound,
                "chromatic number, fractional bound, and a coloring")
    p.add_argument("--clique", action="store_true", help="also report the clique number")
    output(p, "write the certificate file (vertex color parent)")

    command("relax", cmd_relax, (instance, json_output, no_timing, lp_tol),
            "fractional chromatic number only")

    p = command("mwis", cmd_mwis, (instance, json_output), "maximum weight independent set")
    p.add_argument("--weights", help="comma-separated per-vertex weights (default all 1)")

    p = command("stacks", cmd_stacks, branch_and_bound, "minimum number of capacity-H stacks")
    p.add_argument("--height", type=_count, required=True, help="stack capacity H")
    output(p, "write the stack plan (one stack per line)")

    p = command("gen", cmd_gen, (), "generate random instances")
    p.add_argument("-n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=1)
    json_output(p)
    output(p, "output file (suffix .NNN added when count > 1)")

    p = command("export", cmd_export, (instance,),
                "write a formulation as LP/MPS (or the graph as DIMACS)")
    p.add_argument("--formulation", choices=["cg", "cl", "as", "cgh"])
    p.add_argument("--format", choices=["lp", "mps", "dimacs"], default="lp")
    p.add_argument("--relax", action="store_true", help="export the continuous relaxation")
    p.add_argument("--height", type=_count, help="capacity for cgh (default 1)")
    p.add_argument("--colors", type=_count, help="color slots for cl (default: first fit)")
    output(p, "output path; a .meta.json sidecar is written too")

    p = command("bench", cmd_bench, (lp_tol, int_tol), "random-instance experiment summary (CSV)")
    p.add_argument("--n", type=_counts, required=True, help="comma-separated vertex counts")
    p.add_argument("--samples", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    output(p, "CSV output path (default stdout)")

    p = command("verify", cmd_verify, (lp_tol, int_tol),
                "cross-check the solvers against brute-force oracles")
    p.add_argument("--n-max", type=_oracle_size, default=10)
    p.add_argument("--trials", type=_count, default=50)
    p.add_argument("--seed", type=int, default=1)

    return parser


def _glue_negative_weights(argv: list) -> list:
    """argparse reads a value such as '-3,1,2' as an option string, so
    join it to its option: '--weights=-3,1,2'."""
    out = []
    for tok in argv:
        if out and out[-1] == "--weights" and NEGATIVE_LIST.fullmatch(tok):
            out[-1] = f"--weights={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _glue_negative_weights(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors (parser.error); the contract here is 1
        return 0 if exc.code == 0 else USAGE_ERROR
    except argparse.ArgumentTypeError as exc:  # raised for a bad CIRCLECOLOR_TOL
        print(f"error: CIRCLECOLOR_TOL: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except CircleColorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
