"""One benchmark client: a fresh process that sends CLI requests in a loop.

Started by run.py as `worker.py <checkout> <workload> <seed> <seconds> <trace>`.
It generates the workload's instances from the seed, writes them as
instance files, warms up on a small instance, and then calls
`circlecolor.cli.main([..., "--json"])` in-process, one request after the
other (a closed loop with one client), capturing what a CLI user would
see on stdout.  Between requests, at most HOST_EVERY_S apart, it times
the host-speed kernel of hostspeed.py, so that each request's time can
also be given in reference seconds.  Outputs are spooled to a file and
every answer is checked after the loop.  The result is one JSON object
on the last line of stdout.

With trace 1 the run has two passes.  The first sends every request
twice in a row, once traced (spans around each layer) and once untraced,
alternating which goes first, so the tracing overhead is measured on the
same inputs at nearly the same time.  The second records the tracemalloc
peak around each simplex call, which would inflate the traced times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
TRACED_SHARE = 0.8  # of a traced run's seconds; the rest is the allocation pass
HOST_EVERY_S = 0.1  # most time between two timings of the host-speed kernel


# Why each workload exists is recorded in BENCHMARK.json.  `n` is the
# instance size; `pool` the number of distinct instances a run cycles
# through, more than a run gets to, so every request is a fresh draw;
# `tail` the latency percentile reported as the tail: p90, which leaves
# tens of samples beyond it, except where that is unsteady.  mwis runs
# about a hundred requests, so p75 leaves at least ten; on stacks, p90
# falls in the sparse tail of the H=3 instances that need B&B, and over
# seeds 1-8 its quartile spread was 0.11 of the median against 0.04 for
# p80.  The percentile is fixed so that runs of different speed report
# the same statistic.  Request times are heavy-tailed (B&B runs on some
# instances only), so a run's figures depend on its instance mix; the
# sizes are small enough that one run holds hundreds of requests and
# that mix averages out.
WORKLOADS = {
    "color": {"n": 22, "pool": 1500, "tail": 90},
    "relax": {"n": 25, "pool": 600, "tail": 90},
    "stacks": {"n": 16, "pool": 1500, "tail": 80},
    "mwis": {"n": 400, "pool": 200, "tail": 75},
}

ANSWER_KEYS = {
    "color": ("chi", "chi_f", "omega"),
    "relax": ("chi_f",),
    "stacks": ("stacks", "relaxation"),
    "mwis": ("value",),
}


def mwis_weights(n: int, seed: int, k: int) -> list[int]:
    rng = random.Random(f"mwis-{seed}-{k}")
    return [rng.randint(-5, 5) for _ in range(n)]


def stack_height(k: int) -> int:
    return 2 + k % 2


def request_argv(workload: str, path: str, seed: int, k: int, n: int) -> list[str]:
    if workload == "color":
        return ["solve", path, "--clique", "--json"]
    if workload == "relax":
        return ["relax", path, "--json"]
    if workload == "stacks":
        return ["stacks", path, "--height", str(stack_height(k)), "--json"]
    weights = ",".join(str(w) for w in mwis_weights(n, seed, k))
    # the = form keeps argparse from reading a leading minus as an option
    return ["mwis", path, f"--weights={weights}", "--json"]


def check_answer(workload: str, text: str, out: dict, seed: int, k: int) -> list[str]:
    left, right = checks.parse_instance(text)
    if workload == "color":
        return checks.check_color(left, right, out)
    if workload == "relax":
        return checks.check_relax(left, right, out)
    if workload == "stacks":
        return checks.check_stacks(left, right, out, stack_height(k))
    return checks.check_mwis(left, right, out, mwis_weights(len(left) - 1, seed, k))


def answers(workload: str, out: dict) -> list:
    return [out[key] for key in ANSWER_KEYS[workload]]


def same_answers(got: list, want: list) -> bool:
    return all(abs(g - w) <= checks.TOL for g, w in zip(got, want))


def load_reference(workload: str, seed: int):
    table = json.loads((HERE / "reference.json").read_text())
    return table.get(workload, {}).get(str(seed))


def import_package(checkout: Path):
    """Import the package from the checkout's own source tree, nowhere else."""
    src = checkout / "src"
    sys.path.insert(0, str(src))
    import circlecolor.cli
    import circlecolor.instances
    import circlecolor.intervals

    if Path(circlecolor.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"circlecolor was imported from {circlecolor.cli.__file__}, not {src}")
    return circlecolor


def make_requests(pkg, workload: str, seed: int, workdir: Path):
    """Write the pool of instance files; return (requests, digest)."""
    spec = WORKLOADS[workload]
    digest = hashlib.sha256()
    requests = []
    for k in range(spec["pool"]):
        rep = pkg.instances.generate_one(spec["n"], seed, k)
        text = pkg.intervals.format_instance(rep)
        path = workdir / f"{k}.txt"
        path.write_text(text)
        argv = request_argv(workload, str(path), seed, k, spec["n"])
        digest.update(text.encode())
        digest.update(" ".join(argv[:1] + argv[2:]).encode())
        requests.append({"k": k, "argv": argv, "text": text})
    return requests, digest.hexdigest()


def warm_up(pkg, workload: str, seed: int, workdir: Path):
    """One untimed request on a small instance, so lazy set-up is done."""
    rep = pkg.instances.generate_one(8, seed, 10**6)
    path = workdir / "warmup.txt"
    path.write_text(pkg.intervals.format_instance(rep))
    call_cli(pkg.cli.main, request_argv(workload, str(path), seed, 0, 8))


def call_cli(main, argv):
    """One request: (seconds, exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        error = err.getvalue()
    except Exception as exc:  # noqa: BLE001 - a crashing request is a failed request
        code, error = None, repr(exc)
    return time.perf_counter() - t0, code, out.getvalue(), error


class HostClock:
    """Timings of the host-speed kernel (hostspeed.py) taken through a loop:
    one at the start, then one whenever HOST_EVERY_S has passed."""

    def __init__(self):
        self.kernels = [hostspeed.kernel_s()]
        self._last = time.perf_counter()

    def tick(self, force=False):
        if force or time.perf_counter() - self._last >= HOST_EVERY_S:
            self.kernels.append(hostspeed.kernel_s())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Reference seconds per second over the whole loop."""
        return hostspeed.REF_S / statistics.median(self.kernels)


def spool_write(spool, req, result) -> float:
    """Write one request's outcome to the spool file; return its seconds.
    Outputs wait on disk for judging, so the worker's memory does not grow
    with the number of requests a run completes."""
    seconds, code, stdout, error = result
    spool.write(json.dumps([req["k"], code, stdout, error]) + "\n")
    return seconds


def read_spool(path: Path):
    """(instance, exit code, stdout, error) of every spooled request, in order."""
    with path.open() as spool:
        for line in spool:
            yield json.loads(line)


def run_pass(main, requests, spool, seconds=None, count=None):
    """Closed loop from the start of the pool, for `seconds` or `count`
    requests.  Returns each request's wall seconds and its reference
    seconds: wall seconds scaled by the kernel timings on either side."""
    host = HostClock()
    wall, before = [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds) if count is None else len(wall) < count:
        req = requests[len(wall) % len(requests)]
        before.append(len(host.kernels) - 1)
        wall.append(spool_write(spool, req, call_cli(main, req["argv"])))
        host.tick()
    host.tick(force=True)
    k = host.kernels
    scaled = [t * 2 * hostspeed.REF_S / (k[j] + k[j + 1]) for t, j in zip(wall, before)]
    return wall, scaled


def traced_pass(pkg, requests, spool, seconds):
    """Each request traced and untraced back to back; returns the number of
    traced requests, the per-layer metrics with the tracing overhead, and
    the spans."""
    main = pkg.cli.main
    tracer = spans.Tracer()
    patches = spans.Patches()

    def traced_call(argv):
        tracer.install(patches)
        patches.replace(pkg.cli, "main", lambda fn: tracer.span(spans.REQUEST, fn))
        try:
            return call_cli(pkg.cli.main, argv)
        finally:
            patches.restore()

    host = HostClock()
    traced_s = plain_s = 0.0
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        req = requests[count % len(requests)]
        tracer.request = count
        for traced in (True, False) if count % 2 == 0 else (False, True):
            if traced:
                traced_s += spool_write(spool, req, traced_call(req["argv"]))
            else:
                plain_s += spool_write(spool, req, call_cli(main, req["argv"]))
        count += 1
        host.tick()
    host.tick(force=True)
    layers = spans.layer_metrics(tracer.spans, count, host.scale())
    layers["trace.overhead_frac"] = traced_s / plain_s - 1
    return count, layers, tracer.spans


def alloc_pass(pkg, requests, spool, seconds):
    """Closed loop under tracemalloc; returns the highest allocation peak of
    one simplex call, in MB."""
    peaks = []
    patches = spans.Patches()
    spans.install_alloc_probe(patches, peaks)
    tracemalloc.start()
    try:
        run_pass(pkg.cli.main, requests, spool, seconds=seconds)
    finally:
        tracemalloc.stop()
        patches.restore()
    return max(peaks, default=0) / 2**20


def judge(workload: str, seed: int, requests, records, reference) -> tuple[int, int, list[str]]:
    """Count attempted and correct requests; describe the first few failures."""
    verdicts = {}
    attempted = correct = 0
    problems = []
    for k, code, stdout, error in records:
        attempted += 1
        key = (k, code, stdout)
        if key not in verdicts:
            verdicts[key] = verify(workload, seed, requests[k], code, stdout, error, reference)
        if verdicts[key]:
            problems.append(f"instance {k}: {'; '.join(verdicts[key])}")
        else:
            correct += 1
    return attempted, correct, problems[:5]


def verify(workload, seed, req, code, stdout, error, reference) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {error.strip()[-200:]}"]
    try:
        out = json.loads(stdout)
        found = check_answer(workload, req["text"], out, seed, req["k"])
        got = answers(workload, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable answer: {exc!r}"]
    want = reference[req["k"]] if reference else None
    if want is not None and not same_answers(got, want):
        found.append(f"answers {got} differ from reference {want}")
    return found


def run_record(pkg, workload: str, seed: int, digest: str) -> dict:
    import networkx
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": "Python " + sys.version.replace("\n", " "),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "circlecolor": pkg.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "instances": WORKLOADS[workload],
        "instances_sha256": digest,
    }


def main(argv) -> int:
    checkout, workload, seed, seconds, traced = (
        Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    pkg = import_package(checkout)
    workdir = checkout / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        requests, digest = make_requests(pkg, workload, seed, workdir)
        reference = load_reference(workload, seed)
        warm_up(pkg, workload, seed, workdir)
        result = {"record": run_record(pkg, workload, seed, digest),
                  "reference_checked": reference is not None}
        spool_path = workdir / "outputs.jsonl"
        with spool_path.open("w") as spool:
            if not traced:
                wall, scaled = run_pass(pkg.cli.main, requests, spool, seconds=seconds)
                # read before judging, which holds every output in memory
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                result["latencies"] = scaled
                result["wall_latencies"] = wall
            else:
                count, layers, recorded = traced_pass(pkg, requests, spool,
                                                      seconds * TRACED_SHARE)
                out = checkout / ".perfbench" / "results" / f"spans-{workload}-seed{seed}.jsonl"
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text("".join(json.dumps(span) + "\n" for span in recorded))
                layers["simplex.peak_alloc_mb"] = alloc_pass(
                    pkg, requests, spool, seconds * (1 - TRACED_SHARE))
                result["layers"] = layers
                result["traced_requests"] = count
        result["attempted"], result["correct"], result["problems"] = judge(
            workload, seed, requests, read_spool(spool_path), reference)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
