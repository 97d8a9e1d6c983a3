#!/usr/bin/env python3
"""Figure gate: the paper-figure and ablation CSVs must not move.

Usage: check_figures.py --bench-dir DIR [--figures DIR] [--update]

Runs every paper-figure, table and ablation bench of DIR (the build's
bench/ directory) in a fresh working directory, collects the CSVs they
write into bench_out/, and compares each byte for byte with the copy
committed under tests/figures/ (or --figures DIR). The CSVs carry only
simulated numbers, never wall time, and do not depend on the thread
count or the build type, so the comparison has zero tolerance: a moved
paper number, a missing or an extra CSV fails the gate.

--update rewrites the committed copies from this run instead of
comparing (after a deliberate change to a modeled number).

Exit codes: 0 every CSV matches (or the copies were written), 1 a CSV
differs, is missing or is new, 2 usage error, 3 a bench failed to run.
"""

import difflib
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_FIGURES = os.path.join(ROOT, "tests", "figures")

# The benches whose CSVs are paper artifacts. The throughput benches
# (dse_throughput, mapper_speedup, serving_throughput, kernels_micro)
# time the host and are gated by BENCH_*.json instead.
BENCHES = [
    "table1_staging", "table2_footprint", "fig2_roofline",
    "fig8_utilization", "fig9_energy", "fig10_dse_space",
    "fig11_latency_breakdown", "fig12a_speedup", "fig12b_bandwidth",
    "ablation_overlap", "ablation_features", "ablation_execution",
    "ablation_arch", "extension_sparse", "extension_hierarchy",
    "scaleout_speedup",
]

EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BENCH_FAILED = 3


def run_benches(bench_dir, workdir):
    """Runs every bench in @p workdir; returns {csv name: bytes}."""
    for name in BENCHES:
        path = os.path.join(bench_dir, name)
        proc = subprocess.run([path], cwd=workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{path} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
    out_dir = os.path.join(workdir, "bench_out")
    csvs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            csvs[name] = fh.read()
    return csvs


def committed(figures):
    csvs = {}
    if os.path.isdir(figures):
        for name in sorted(os.listdir(figures)):
            if name.endswith(".csv"):
                with open(os.path.join(figures, name), "rb") as fh:
                    csvs[name] = fh.read()
    return csvs


def first_diff(name, want, got):
    """The first few differing lines of one CSV, unified-diff style."""
    lines = difflib.unified_diff(
        want.decode("utf-8", "replace").splitlines(),
        got.decode("utf-8", "replace").splitlines(),
        fromfile=f"committed/{name}", tofile=f"fresh/{name}", lineterm="",
        n=0)
    return "\n".join(list(lines)[:12])


def main(argv):
    bench_dir = None
    figures = DEFAULT_FIGURES
    update = False
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg in ("--bench-dir", "--figures") and i + 1 < len(argv):
            if arg == "--bench-dir":
                bench_dir = os.path.abspath(argv[i + 1])
            else:
                figures = argv[i + 1]
            i += 2
        elif arg == "--update":
            update = True
            i += 1
        else:
            print(__doc__.strip().splitlines()[2], file=sys.stderr)
            return EXIT_USAGE
    if bench_dir is None:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return EXIT_USAGE

    workdir = tempfile.mkdtemp(prefix="flat_figures_")
    try:
        fresh = run_benches(bench_dir, workdir)
    except (OSError, RuntimeError) as err:
        print(f"check_figures: {err}", file=sys.stderr)
        return EXIT_BENCH_FAILED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if update:
        os.makedirs(figures, exist_ok=True)
        for name in committed(figures):
            os.remove(os.path.join(figures, name))
        for name, data in fresh.items():
            with open(os.path.join(figures, name), "wb") as fh:
                fh.write(data)
        print(f"check_figures: wrote {len(fresh)} CSVs to {figures}")
        return 0

    pinned = committed(figures)
    failures = []
    for name in sorted(set(pinned) | set(fresh)):
        if name not in fresh:
            failures.append(f"{name}: committed but no bench wrote it")
        elif name not in pinned:
            failures.append(f"{name}: new CSV, not under {figures}")
        elif fresh[name] != pinned[name]:
            failures.append(f"{name} differs:\n"
                            f"{first_diff(name, pinned[name], fresh[name])}")
        else:
            print(f"{name}: ok")
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return EXIT_MISMATCH
    print(f"{len(fresh)} figure CSVs match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
