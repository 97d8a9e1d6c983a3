#!/usr/bin/env python3
"""Compare two bench JSON reports (BENCH_dse.json, BENCH_mapper.json).

Usage: bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]

Fails (exit 1) when the candidate's headline metric regresses by more
than the threshold (default 7.5%) relative to the baseline:

  dse_throughput      search.points_per_sec
  serving_throughput  prefill_first.steps_per_sec
  mapper_speedup      analytic.points_per_sec

Secondary metrics are reported but only warn: they are noisier and a
real regression shows up in the headline number anyway.

A missing BASELINE file is not an error: the first run of a freshly
added bench has nothing to compare against, so the candidate is
validated on its own and the script reports "no baseline, recording"
with exit 0 (commit the candidate as the baseline). A missing or
garbled CANDIDATE is still exit 3.

Both documents are flattened to dot-joined numeric keys and only the
INTERSECTION is compared, so a report produced by a newer bench binary
(added fields) or an older one (missing fields) still compares cleanly;
keys present in only one file are listed as schema drift, never an
error. This keeps stored baselines usable across bench revisions.

Exit codes: 0 no regression, 1 regression past the threshold, 2 usage
error, 3 unusable bench input — a missing, truncated, or
schema-mismatched baseline/candidate (no 'bench' field, different
benches, missing headline, no comparable metrics). Input problems are
always a one-line diagnostic, never a traceback.
"""

import json
import os
import sys

# Per-bench headline (the metric that can FAIL the comparison) and
# secondary metrics (report + warn only). direction +1 = higher is
# better, -1 = lower is better.
HEADLINES = {
    "dse_throughput": ("full-space points/s", "search.points_per_sec"),
    "serving_throughput": ("prefill-first sim steps/s (wall)",
                           "prefill_first.steps_per_sec"),
    "mapper_speedup": ("analytic points/s", "analytic.points_per_sec"),
}
SECONDARY = {
    "dse_throughput": [
        ("allocs/point", "allocs_per_point", -1),
        ("hot path batched ns/point", "hot_path.batch_ns_per_point",
         -1),
    ],
    "serving_throughput": [
        ("decode-first steps/s (wall)",
         "decode_first.steps_per_sec", +1),
        ("prefill-first sim tokens/s",
         "prefill_first.sim_tokens_per_s", +1),
        ("prefill-first p99 latency", "prefill_first.p99_s", -1),
        ("decode-first sim tokens/s",
         "decode_first.sim_tokens_per_s", +1),
        ("decode-first p99 latency", "decode_first.p99_s", -1),
    ],
    "mapper_speedup": [
        ("analytic-vs-exhaustive speedup", "speedup_x", +1),
        ("speedup vs pruned sweep", "speedup_vs_pruned_x", +1),
        ("exhaustive points/s", "exhaustive.points_per_sec", +1),
        ("golden-parity configs", "golden.parity", +1),
    ],
}


EXIT_BAD_INPUT = 3


def load(path):
    """One report, or a one-line diagnostic + exit 3 (missing file,
    truncated/garbled JSON, non-object top level — never a traceback)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)
    if not isinstance(doc, dict):
        print(f"bench_compare: {path} is not a JSON object",
              file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)
    return doc


def flatten(doc, prefix=""):
    """Dot-joined {key: number} view of every numeric leaf."""
    flat = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(
                value, bool):
            flat[name] = float(value)
    return flat


def rel_change(base, cand):
    if base is None or cand is None or base <= 0:
        return None
    return (cand - base) / base


def main(argv):
    threshold = 0.075
    paths = []
    i = 1
    while i < len(argv):
        if argv[i] == "--threshold" and i + 1 < len(argv):
            try:
                threshold = float(argv[i + 1]) / 100.0
            except ValueError:
                print("bench_compare: bad --threshold", file=sys.stderr)
                return 2
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2

    # A brand-new bench has no stored baseline yet: validate the
    # candidate alone and succeed, telling the caller to record it.
    if not os.path.exists(paths[0]):
        cand_doc = load(paths[1])
        cand_bench = cand_doc.get("bench")
        if not isinstance(cand_bench, str):
            print(f"bench_compare: {paths[1]} has no 'bench' field "
                  f"(truncated or not a bench report)",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        if cand_bench in HEADLINES:
            label, key = HEADLINES[cand_bench]
            value = flatten(cand_doc).get(key)
            if value is None or value <= 0:
                print(f"bench_compare: headline {key} missing or zero "
                      f"in {paths[1]}", file=sys.stderr)
                return EXIT_BAD_INPUT
            print(f"{label}: {value:.0f} (candidate)")
        print(f"bench_compare: no baseline at {paths[0]}, recording — "
              f"commit {paths[1]} as the {cand_bench} baseline")
        return 0

    base_doc = load(paths[0])
    cand_doc = load(paths[1])
    bench = base_doc.get("bench")
    # An empty/partial document ({} from an interrupted bench run) has
    # no "bench" field; it used to slip through the mismatch check as
    # None == None and compare an empty intersection — a silent pass.
    for path, doc in ((paths[0], base_doc), (paths[1], cand_doc)):
        if not isinstance(doc.get("bench"), str):
            print(f"bench_compare: {path} has no 'bench' field "
                  f"(truncated or not a bench report)",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    if bench != cand_doc.get("bench"):
        print(f"bench_compare: comparing different benches "
              f"({base_doc.get('bench')} vs {cand_doc.get('bench')})",
              file=sys.stderr)
        return EXIT_BAD_INPUT

    base = flatten(base_doc)
    cand = flatten(cand_doc)

    # Schema drift: tolerated, but say so — a silently shrinking
    # intersection could otherwise hide a renamed headline.
    for name, only in (("baseline", base.keys() - cand.keys()),
                       ("candidate", cand.keys() - base.keys())):
        for key in sorted(only):
            print(f"note: {key} only in {name} (schema drift, "
                  f"ignored)")

    if not (base.keys() & cand.keys()):
        print(f"bench_compare: no comparable numeric metrics between "
              f"{paths[0]} and {paths[1]}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if bench not in HEADLINES:
        print(f"bench_compare: unknown bench '{bench}': comparing "
              f"intersection only, nothing can fail")
        for key in sorted(base.keys() & cand.keys()):
            change = rel_change(base[key], cand[key])
            if change is not None:
                print(f"{key}: {base[key]:.4g} -> {cand[key]:.4g} "
                      f"({100.0 * change:+.1f}%)")
        return 0

    label, key = HEADLINES[bench]
    change = rel_change(base.get(key), cand.get(key))
    if change is None:
        print(f"bench_compare: headline {key} missing or zero",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"{label}: {base[key]:.0f} -> {cand[key]:.0f} "
          f"({100.0 * change:+.1f}%)")

    for slabel, skey, direction in SECONDARY.get(bench, []):
        schange = rel_change(base.get(skey), cand.get(skey))
        if schange is None:
            continue
        note = ""
        if direction * schange < -threshold:
            note = "  [warn: worse than threshold]"
        print(f"{slabel}: {base[skey]:.4g} -> {cand[skey]:.4g} "
              f"({100.0 * schange:+.1f}%){note}")

    if change < -threshold:
        print(f"REGRESSION: {label} down {100.0 * -change:.1f}% "
              f"(> {100.0 * threshold:.1f}% threshold)")
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
