#!/usr/bin/env python3
"""Deterministic work-counter gate for the attention search.

Usage: work_counters.py --flatsim PATH [--baseline FILE] [--update]

Runs a pinned set of `flatsim --json` requests drawn from the explore
and serve benchmarks' designs (flatbench/workloads.py), each at
--threads 1 and at --threads 4, and reads the search's work counters:
la_points_evaluated and la_points_pruned, evaluated and pruned for
--block, or the step-cost memo's cost_lookups and cost_memo_hits for
--serve. The counters do not depend on the host or the thread count, so
they are compared with zero tolerance: both thread counts must agree,
and both must equal the committed baseline (default: BENCH_work.json at
the repo root). A weakened prune bound, a lost memo or a
thread-dependent split then fails with no noise at all.

The analytic mapper's requests (--search-mode analytic) run at
--threads 1 only: its whole-slice skip reads a shared atomic incumbent,
so above one thread its evaluated/pruned split depends on scheduling
(its pick does not).

--update rewrites the baseline from this run instead of comparing
(after a deliberate change to the search); the thread-count check still
applies.

Exit codes: 0 counters match (or baseline written), 1 a counter differs
from the baseline or between thread counts, 2 usage error, 3 a request
failed, printed no counters, or the baseline is unreadable or stale.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(ROOT, "BENCH_work.json")
THREADS = (1, 4)

# name -> flatsim argv (without --threads / --json). Off-chip-BW-bound
# and compute-bound runs, every style, base-opt and both specs, a
# --block, a --kv-seq model scope, a --devices 2 scale-out, and a short
# block-scope request whose loop orders mostly price alike (the order
# classes skip all but the first of each).
REQUESTS = [
    ("xlm-edge-32k-style-all",
     "--model xlm --platform edge --seq 32768 --batch 8 "
     "--policy flat-opt --scope la --style all"),
    ("bert-edge-2k-base-opt-bw-bound",
     "--model bert --platform edge --seq 2048 --batch 8 "
     "--policy base-opt --scope la --buffer 2MiB --offchip-bw 100GB/s"),
    ("bert-edge-1k-attacc-bw-bound",
     "--model bert --platform edge --seq 1024 --batch 8 "
     "--accel attacc --scope la --offchip-bw 25GB/s"),
    ("bert-edge-1k-block",
     "--model bert --platform edge --seq 1024 --batch 64 "
     "--policy flat-opt --block"),
    ("t5-edge-4k-devices-2",
     "--model t5 --platform edge --seq 4096 --batch 8 "
     "--policy flat-opt --scope la --devices 2"),
    ("t5-cloud-8k",
     "--model t5 --platform cloud --seq 8192 --batch 64 "
     "--policy flat-opt --scope la"),
    ("bert-edge-4k-flexaccel-kv-seq",
     "--model bert --platform edge --seq 4096 --batch 64 "
     "--accel flexaccel --scope model --kv-seq 1024"),
    ("flaubert-edge-2k-base-opt-block-scope",
     "--model flaubert --platform edge --seq 2048 --batch 1 "
     "--policy base-opt --scope block --buffer 1MiB --offchip-bw 25GB/s"),
    ("xlm-edge-512-block-scope-style-all",
     "--model xlm --platform edge --seq 512 --batch 1 "
     "--policy flat-opt --scope block --style all"),
]

# The mapper at one thread: a GQA model, an off-chip-bound accelerator
# spec and every style. Its climb prunes against its own slice.
MAPPER_REQUESTS = [
    ("mistral-cloud-2k-gqa-analytic",
     "--model mistral --platform cloud --seq 2048 --batch 8 "
     "--policy flat-opt --scope la --search-mode analytic"),
    ("bert-edge-1k-attacc-bw-bound-analytic",
     "--model bert --platform edge --seq 1024 --batch 8 "
     "--accel attacc --scope la --offchip-bw 25GB/s "
     "--search-mode analytic"),
    ("xlm-edge-32k-style-all-analytic",
     "--model xlm --platform edge --seq 32768 --batch 8 "
     "--policy flat-opt --scope la --style all --search-mode analytic"),
]

# Serving: every step is priced through the step-cost memo, so its
# lookups and hits count the steps priced and the searches they spared.
# Both batching policies and one --sched auto search (on cloud, as the
# serve benchmark runs its auto slice).
SERVE_REQUESTS = [
    ("bert-edge-serve-prefill-first",
     "--serve --model bert --platform edge --arrival poisson --rate 4 "
     "--serve-requests 16 --serve-seed 3 --prompt-tokens 512 "
     "--output-tokens 16 --max-batch 8 --sched prefill-first"),
    ("mistral-edge-serve-decode-first",
     "--serve --model mistral --platform edge --arrival bursty --rate 8 "
     "--serve-requests 16 --serve-seed 5 --prompt-tokens 1024 "
     "--output-tokens 16 --max-batch 4 --sched decode-first"),
    ("t5-cloud-serve-auto",
     "--serve --model t5 --platform cloud --arrival poisson --rate 2 "
     "--serve-requests 16 --serve-seed 7 --prompt-tokens 512 "
     "--output-tokens 8 --max-batch 8 --sched auto"),
]

EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


class GateError(Exception):
    """A request or the baseline is unusable (exit 3)."""


def counters(flatsim, argv, threads):
    """The search counters one request reports at @p threads."""
    cmd = [flatsim] + argv.split() + ["--threads", str(threads), "--json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise GateError(f"{' '.join(cmd)} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    try:
        report = json.loads(proc.stdout)
    except ValueError as err:
        raise GateError(f"{' '.join(cmd)} printed no JSON: {err}")
    flags = argv.split()
    keys = (("evaluated", "pruned") if "--block" in flags
            else ("cost_lookups", "cost_memo_hits") if "--serve" in flags
            else ("la_points_evaluated", "la_points_pruned"))
    if not all(isinstance(report.get(k), int) for k in keys):
        raise GateError(f"{' '.join(cmd)} reports no {'/'.join(keys)}")
    return {k: report[k] for k in keys}


def measure(flatsim):
    """{name: {"argv", "counters"}} at THREADS[0]; a thread-dependent
    counter is reported and fails the gate."""
    measured = {}
    failures = []
    pinned = ([(name, argv, THREADS) for name, argv in REQUESTS] +
              [(name, argv, THREADS[:1]) for name, argv in MAPPER_REQUESTS] +
              [(name, argv, THREADS) for name, argv in SERVE_REQUESTS])
    for name, argv, thread_counts in pinned:
        runs = [counters(flatsim, argv, t) for t in thread_counts]
        for threads, run in zip(thread_counts[1:], runs[1:]):
            if run != runs[0]:
                failures.append(f"{name}: --threads {threads} gives "
                                f"{run}, --threads {thread_counts[0]} gives "
                                f"{runs[0]}")
        measured[name] = {"argv": argv, "counters": runs[0]}
    return measured, failures


def load_baseline(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        raise GateError(f"cannot read baseline {path}: {err}")
    if not isinstance(doc, dict) or not isinstance(
            doc.get("requests"), dict):
        raise GateError(f"{path} has no 'requests' object")
    return doc["requests"]


def main(argv):
    flatsim = None
    baseline = DEFAULT_BASELINE
    update = False
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg in ("--flatsim", "--baseline") and i + 1 < len(argv):
            if arg == "--flatsim":
                flatsim = argv[i + 1]
            else:
                baseline = argv[i + 1]
            i += 2
        elif arg == "--update":
            update = True
            i += 1
        else:
            print(__doc__.strip().splitlines()[2], file=sys.stderr)
            return EXIT_USAGE
    if flatsim is None:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return EXIT_USAGE

    try:
        measured, failures = measure(flatsim)
        if update:
            with open(baseline, "w", encoding="utf-8") as fh:
                json.dump({"bench": "work_counters",
                           "requests": measured}, fh, indent=2)
                fh.write("\n")
            print(f"work_counters: wrote {len(measured)} requests to "
                  f"{baseline}")
        else:
            pinned = load_baseline(baseline)
            if set(pinned) != set(measured) or any(
                    pinned[n].get("argv") != measured[n]["argv"]
                    for n in measured):
                raise GateError(f"{baseline} pins other requests than "
                                f"this script runs; rerun with --update")
            for name, entry in measured.items():
                for key, value in entry["counters"].items():
                    want = pinned[name].get("counters", {}).get(key)
                    status = "ok" if value == want else "MISMATCH"
                    print(f"{name} {key}: {want} -> {value} {status}")
                    if value != want:
                        failures.append(f"{name}: {key} {value}, "
                                        f"baseline {want}")
    except GateError as err:
        print(f"work_counters: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return EXIT_MISMATCH
    print("work counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
