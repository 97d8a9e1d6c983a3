#!/usr/bin/env python3
"""End-to-end benchmark of the flatsim CLI.

    python3 flatbench/run.py --workload explore|serve|sweep --seed N \\
        --seconds S --trace 0|1

Builds flatsim and the traced replay (flatbench_trace) from the sources
of the checkout it sits in, into .bench_build/flatbench, then drives
the unmodified flatsim binary with the workload's seeded request list.

--trace 0: a closed loop with one client. Each request is one flatsim
process with --threads 1, so every request starts with cold caches. The
list is repeated in whole passes until --seconds have passed and at
least 100 requests completed (the p90 needs 10 samples beyond it), so a
workload of slow requests can measure for longer than --seconds. Every
report is checked, every repeat must reproduce the first pass bit for
bit, and a start-up probe runs before every eighth request. Prints the
end-to-end metrics.

--trace 1: one pass over the list. Each request runs as a flatsim
process and then as its traced in-process twin, with spans on and off.
The twin must reproduce the CLI's simulated outputs. Prints the
per-layer metrics (see flatbench/METRICS.md).

The last line of standard output is the JSON result object.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import checks
import stats
import traced
import workloads
from harness import Runner, checked, label, prepare, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "flatbench")
BUILD_JOBS = "4"
MIN_SAMPLES = 100
PROBE_EVERY = 8


class SetupError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


def build():
    """Configures and builds flatsim and flatbench_trace; returns their
    paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SetupError(f"no flatsim sources under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target",
                  "flatsim", "flatbench_trace"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    tail = text.read()[-3000:]
                raise SetupError(f"{' '.join(step)} failed:\n{tail}")
    return (os.path.join(BUILD, "flat", "tools", "flatsim"),
            os.path.join(BUILD, "flatbench_trace"))


def measure(requests, runner, flatsim, seconds, workload):
    """The closed loop: whole passes over the request list."""
    tally = stats.Tally()
    reference = [None] * len(requests)
    latencies_ms = []
    setup_s = []
    busy_s = 0.0
    peak_rss_kb = 0
    problems = []
    probes = [workloads.setup_probe(p) for p in workloads.PLATFORMS]
    start = time.perf_counter()
    passes = 0
    issued = 0
    while True:
        pass_start = time.perf_counter()
        previous = None
        for index, request in enumerate(requests):
            if issued % PROBE_EVERY == 0:
                probe = probes[(issued // PROBE_EVERY) % len(probes)]
                out = runner.spawn([flatsim] + probe.argv)
                try:
                    checked(probe, out, None)
                    setup_s.append(out.latency_s)
                except checks.CheckError as exc:
                    problems.append(f"setup probe: {exc}")
            issued += 1
            begin = time.perf_counter()
            prepare(runner.workdir, request)
            out = runner.spawn([flatsim] + request.argv)
            error = None
            outputs = None
            if request.kind == "resume" and previous is None:
                previous = reference[index - 1]
            try:
                outputs = checked(request, out, previous)
                if reference[index] is None:
                    reference[index] = outputs
                checks.require(outputs == reference[index],
                               "output differs from the first pass")
            except checks.CheckError as exc:
                error = exc
            tally.record(label(index, request), error)
            previous = outputs if request.kind == "sweep" else None
            if error is None:
                latencies_ms.append(out.latency_s * 1e3)
            peak_rss_kb = max(peak_rss_kb, out.maxrss_kb)
            busy_s += time.perf_counter() - begin
        passes += 1
        now = time.perf_counter()
        if (len(latencies_ms) >= MIN_SAMPLES and
                now - start >= seconds - (now - pass_start) / 2):
            break
        if tally.failed and len(latencies_ms) < tally.failed:
            break  # mostly failing: no point in more passes

    metrics = stats.Metrics()
    completed = len(latencies_ms)
    metrics.add("req_p50_ms", stats.median(latencies_ms), "ms",
                f"n={completed}")
    tail = stats.tail_percentile(latencies_ms, 0.9)
    if tail is None:
        problems.append(f"only {completed} completed requests: no p90 "
                        f"with {stats.MIN_BEYOND} samples beyond it")
        tail = (max(latencies_ms, default=0.0), 0, completed)
    metrics.add("req_p90_ms", tail[0], "ms",
                f"n={tail[2]}, {tail[1]} beyond")
    metrics.add("req_per_s", completed / busy_s if busy_s else 0.0, "1/s",
                f"{completed} requests in {busy_s:.2f} s, {passes} passes")
    metrics.add("setup_s", stats.median(setup_s), "s",
                f"median of {len(setup_s)} start-up probes")
    metrics.add("peak_rss_mb", peak_rss_kb / 1024.0, "MB")
    metrics.add("ok_ratio", 1.0 - tally.failed_ratio, "ratio",
                f"failed_ratio {tally.failed_ratio:.4g}: {tally.failed} of "
                f"{tally.attempted}")
    digest = checks.Digest()
    for outputs in reference:
        digest.add(outputs)
    print(f"{workload} digest {digest.hexdigest()} over {len(requests)} "
          f"distinct requests")
    return tally, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        flatsim, tracer = build()
    except (SetupError, OSError) as exc:
        print(f"flatbench: {exc}", file=sys.stderr)
        return 2

    requests = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(BUILD, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        write_inputs(requests, workdir)
        runner = Runner(workdir)
        if args.trace:
            tally, metrics, problems = traced.measure(
                requests, runner, flatsim, tracer, args.workload)
        else:
            tally, metrics, problems = measure(
                requests, runner, flatsim, args.seconds, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in metrics.lines(args.workload):
        print(line)
    for reason in tally.reasons + problems:
        print(f"{args.workload} FAILED {reason}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics.as_dict(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
