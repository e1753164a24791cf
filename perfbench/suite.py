"""Run the benchmark over workloads and seeds, compare two result files,
or record the reference answers.

    python3 perfbench/suite.py run --seeds 1,2,3,4,5,6,7,8,9,10 --out new.json \
        --base ../parent --base-out base.json
    python3 perfbench/suite.py compare base.json new.json
    python3 perfbench/suite.py run --seeds 0 --trace 1 --out layers.json
    python3 perfbench/suite.py reference

`run` calls run.py once per workload and seed, for every workload of
BENCHMARK.json and its run_seconds, prints every metric by name with its
unit (median and quartiles over the seeds) and writes the full results,
run records included, to `--out`.  With `--base`, a second checkout (of
the parent commit, say) with the same benchmark files is run in pairs
with this one, alternating which side of a pair runs first, and its
results go to `--base-out`.  `compare` prints, for every workload and
end-to-end metric, both sides' medians and quartiles, the metric's bound
and a verdict:

- worse: the new median is worse than the base median by more than the
  bound, or, on the `failed` row, more requests failed on the new side;
- unresolved: either side's quartile spread, as a share of its median, is
  wider than the bound, and not every new run beats every base run;
- better: the new side wins at least nine tenths of the runs paired by seed
  (ties count for neither), and the medians differ by more than the base
  quartile spread;
- unchanged: otherwise.

`reference` solves every pool instance of every workload for the default
and the held-out seed and writes perfbench/reference.json; run it only
on a commit whose answers are trusted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
REFERENCE_SEEDS = (0, 1000)  # the default seed and one held-out seed


def spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs: list[dict]) -> dict:
    out = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def summarize(runs: list[dict]):
    for workload, group in by_workload(runs).items():
        names = list(group[0]["metrics"])
        seeds = ",".join(str(r["seed"]) for r in group)
        failed = sum(r["failed"] for r in group)
        attempted = sum(r["attempted"] for r in group)
        print(f"{workload}: seeds {seeds}; {failed} of {attempted} requests failed")
        for name in names:
            values = [r["metrics"][name]["value"] for r in group]
            q1, med, q3 = quartiles(values)
            unit = group[0]["metrics"][name]["unit"]
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:34s} {med:12.6g} {unit:9s} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")


def benchmark_files(checkout: Path) -> dict:
    """BENCHMARK.json and the source files under its paths, by name."""
    paths = [checkout / "BENCHMARK.json"] + sorted(
        f for d in spec()["paths"] for f in (checkout / d).rglob("*")
        if f.is_file() and "__pycache__" not in f.parts)
    return {str(f.relative_to(checkout)): f.read_bytes() for f in paths}


def run_one(checkout: Path, workload: str, seed: int, trace: int):
    """One run.py run in `checkout`; the full result, or None if it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    full = json.loads(proc.stdout.strip().splitlines()[-2])
    ok = full["attempted"] - full["failed"]
    print(f"{checkout} {workload} seed {seed}: {ok}/{full['attempted']} correct", file=sys.stderr)
    return full


def cmd_run(args) -> int:
    sides = [(CHECKOUT, args.out, [])]
    if args.base:
        base = Path(args.base).resolve()
        if benchmark_files(base) != benchmark_files(CHECKOUT):
            print(f"error: the benchmark files of {base} differ from these", file=sys.stderr)
            return 2
        sides.append((base, args.base_out, []))
    status = 0
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        for workload in (w["name"] for w in spec()["workloads"]):
            # alternate which side runs first, so that a drift of the host
            # between the two runs of a pair favours neither side
            for checkout, _, runs in sides[::-1] if i % 2 else sides:
                full = run_one(checkout, workload, seed, args.trace)
                if full is None:
                    status = 1
                else:
                    runs.append(full)
    for checkout, out, runs in sides:
        Path(out).write_text(json.dumps({"benchmark": spec(), "runs": runs}, indent=1) + "\n")
        print(f"== {checkout}")
        summarize(runs)
    return status


def verdict(base: list[float], new: list[float], pairs, bound: float, lower: bool) -> str:
    def better(a, b):  # a reads better than b
        return a < b if lower else a > b

    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    worse_by = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    all_better = all(better(n, b) for n in new for b in base)
    if worse_by > bound:
        return "worse"
    if max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed) > bound and not all_better:
        return "unresolved"
    wins = sum(1 for b, n in pairs if better(n, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1:
        return "better"
    return "unchanged"


def cmd_compare(args) -> int:
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    metrics = {m["name"]: m for m in spec()["end_to_end"]}
    base_by, new_by = by_workload(base["runs"]), by_workload(new["runs"])
    print(f"{'workload':8s} {'metric':16s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'bound':>6s} verdict")
    for workload in base_by:
        if workload not in new_by:
            print(f"{workload:8s} missing from {args.new}")
            continue
        for name, m in metrics.items():
            b_runs = {r["seed"]: r["metrics"][name]["value"] for r in base_by[workload]}
            n_runs = {r["seed"]: r["metrics"][name]["value"] for r in new_by[workload]}
            pairs = [(b_runs[s], n_runs[s]) for s in b_runs if s in n_runs]
            b, n = list(b_runs.values()), list(n_runs.values())
            word = verdict(b, n, pairs, m["bound"], m["better"] == "lower")
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            print(f"{workload:8s} {name:16s} {bmed:10.5g} [{bq1:.5g}, {bq3:.5g}]".ljust(61)
                  + f" {nmed:10.5g} [{nq1:.5g}, {nq3:.5g}]".ljust(35)
                  + f" {m['bound']:6.2f} {word}")
        (b_failed, b_tried), (n_failed, n_tried) = (
            (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in (base_by[workload], new_by[workload]))
        word = ("worse" if n_failed > b_failed else "better" if n_failed < b_failed
                else "unchanged")
        print(f"{workload:8s} {'failed':16s} {b_failed:10d} of {b_tried}".ljust(61)
              + f" {n_failed:10d} of {n_tried}".ljust(35) + f" {'':6s} {word}")
    return 0


def cmd_reference(args) -> int:
    sys.path.insert(0, str(HERE))
    import worker

    pkg = worker.import_package(CHECKOUT)
    table = {}
    workdir = CHECKOUT / ".perfbench" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    for workload in worker.WORKLOADS:
        for seed in REFERENCE_SEEDS:
            requests, _ = worker.make_requests(pkg, workload, seed, workdir)
            spool_path = workdir / "outputs.jsonl"
            with spool_path.open("w") as spool:
                worker.run_pass(pkg.cli.main, requests, spool, count=len(requests))
            _, correct, problems = worker.judge(
                workload, seed, requests, worker.read_spool(spool_path), None)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = [
                [round(a, 9) for a in worker.answers(workload, json.loads(stdout))]
                for _, _, stdout, _ in worker.read_spool(spool_path)]
            print(f"{workload} seed {seed}: {correct} answers", file=sys.stderr)
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()
    (HERE / "reference.json").write_text(
        "{\n" + ",\n".join(f"{json.dumps(w)}: {json.dumps(v)}" for w, v in table.items())
        + "\n}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run workloads x seeds and write a result file")
    p.add_argument("--seeds", default="0")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--base", help="a checkout of the parent commit, run in pairs with this one")
    p.add_argument("--base-out", help="result file for --base")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two result files")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("reference", help="record reference answers")
    p.set_defaults(func=cmd_reference)
    args = parser.parse_args(argv)
    if args.cmd == "run" and bool(args.base) != bool(args.base_out):
        parser.error("--base and --base-out go together")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
