"""circlecolor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload color --seed 0 --seconds 22 --trace 0

Run from the root of a checkout.  The run times a fresh interpreter's
import of the package several times (set-up), then starts one worker
process that sends CLI requests in a closed loop for `--seconds`
(see worker.py).  With `--trace 0` it reports the end-to-end metrics,
with `--trace 1` the per-layer metrics of BENCHMARK.json.  Every time,
set-up included, is given in reference seconds: wall seconds scaled by
the host's speed at that moment (hostspeed.py), because the shared host
this benchmark was defined on changes speed by up to 1.8x for minutes at
a time.  The full result also gives the end-to-end times in wall seconds,
under "notes" / "wall".  The last line of stdout is the result:

    {"correct": true|false, "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

"correct" is true only when every request's answer passed its checks.

The line before it is the full result, with the run record; a copy goes
to `.perfbench/results/`, where a traced run also leaves its spans, one
JSON list per line: name, start, end, parent index, request, kept value.
The exit code is 0 only when the run completed; a missing package source
tree or a crashed worker exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
# One client runs on one thread.  BLAS worker threads only spin in the
# small dense solves here, and when another process holds the second core
# they made requests up to 2.5x slower and far noisier.
ENV = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

# A fresh interpreter imports the package and prints the monotonic clock
# (the clock perf_counter reads, shared by all processes) once it is
# ready, its in-process import time, and a timing of the host-speed kernel.
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = ['src', 'perfbench']\n"
    "import circlecolor.cli\n"
    "ready = time.monotonic()\n"
    "import_s = time.perf_counter() - t0\n"
    "import hostspeed\n"
    "print(ready, import_s, hostspeed.kernel_s())\n"
)


def benchmark_spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def measure_setup(importtime: bool) -> list[dict]:
    """Start fresh interpreters that import circlecolor.cli; time each from
    process start to ready, in wall and in reference seconds.  With
    importtime on, the in-process import times include that option's own
    cost."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE]
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=CHECKOUT, env=ENV, capture_output=True, text=True,
                              timeout=60)
        try:
            ready, import_s, kernel_s = (float(x) for x in proc.stdout.split())
        except ValueError:
            ready = None
        if proc.returncode != 0 or ready is None:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        scale = hostspeed.REF_S / kernel_s
        probe = {"wall_setup_s": ready - t0, "kernel_s": kernel_s,
                 "setup_s": (ready - t0) * scale, "import_s": import_s * scale}
        if importtime:
            # "import time: self [us] | cumulative | name"; take networkx's own entry
            found = re.search(r"\|\s*(\d+)\s*\|\s*networkx\s*$", proc.stderr, re.MULTILINE)
            probe["networkx_import_s"] = int(found.group(1)) / 1e6 * scale if found else 0.0
        probes.append(probe)
    return probes


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(CHECKOUT), workload,
           str(seed), str(seconds), "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=CHECKOUT, env=ENV, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def end_to_end(worker: dict, probes: list[dict]) -> tuple[dict, dict]:
    pct = worker["record"]["instances"]["tail"]

    def timings(lat, setup):
        return {
            "throughput_rps": worker["correct"] / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": percentile(lat, pct),
            "setup_s": statistics.median(p[setup] for p in probes),
        }

    lat = worker["latencies"]
    values = timings(lat, "setup_s")
    values["correct_frac"] = worker["correct"] / worker["attempted"]
    values["peak_rss_mb"] = worker["peak_rss_mb"]
    notes = {"tail_percentile": pct, "samples": len(lat),
             "samples_beyond_tail": sum(1 for t in lat if t > values["latency_tail_s"]),
             "wall": timings(worker["wall_latencies"], "wall_setup_s")}
    return values, notes


def per_layer(worker: dict, probes: list[dict]) -> dict:
    values = dict(worker["layers"])
    values["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["setup.networkx_import_s"] = statistics.median(
        p["networkx_import_s"] for p in probes)
    return values


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (CHECKOUT / "src" / "circlecolor" / "cli.py").is_file():
        print(f"error: no package source at {CHECKOUT / 'src' / 'circlecolor'}", file=sys.stderr)
        return 2
    trace = args.trace == 1
    try:
        probes = measure_setup(importtime=trace)
        worker = run_worker(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics_spec = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values, notes = per_layer(worker, probes), {"traced_requests": worker["traced_requests"]}
    else:
        values, notes = end_to_end(worker, probes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    failed = worker["attempted"] - worker["correct"]
    line = {"correct": failed == 0, "attempted": worker["attempted"],
            "failed": failed, "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "record": worker["record"], "notes": notes,
            "reference_checked": worker["reference_checked"],
            "problems": worker["problems"], "probes": probes, **line}

    for problem in worker["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:7s} {name:34s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    out_dir = CHECKOUT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps(full))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
