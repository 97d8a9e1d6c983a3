"""Seeded request mixes for the flatsim benchmark.

Each workload turns a seed into a fixed list of flatsim requests. A
request is the argv flatsim receives (without the binary), plus the
files it needs. The same seed always yields the same list.

The factors that set a request's cost (category, model, platform,
sequence length, batch, scope, policy, trace shape, sweep spec) come
from a fixed balanced design per workload, so that every seed measures
the same mix and runs with different seeds compare. The seed draws the
order of the list and the details on top of the design that leave a
request's cost alone: trxl versus flaubert (same width, different
depth) and where, within a few records, each sweep journal is cut.
"""

import random
from dataclasses import dataclass, field

PAPER_MODELS = ["bert", "trxl", "flaubert", "t5", "xlm"]
PLATFORMS = ["edge", "cloud"]

# Distinct requests per list. A pass over the list takes a few seconds
# on a 4-core x86 host, so one run repeats it several times.
EXPLORE_REQUESTS = 60
SERVE_REQUESTS = 52
SWEEP_SPECS = 24
# Journal fsyncs are about half of a journaled quick sweep's time and
# follow the disk, whose latency on a shared host drifts several-fold
# within minutes; journaling one spec in four keeps the journal on the
# request path without letting the disk set the workload's quantiles.
SWEEP_JOURNALED = 5
CUT_JITTER = 0.01
FIXED_POLICIES = ["flat-r128", "base-h"]
SEARCHED_POLICIES = ["flat-opt", "base-opt"]


@dataclass
class Request:
    """One flatsim invocation of the benchmark's closed loop."""

    kind: str  # run | block | scaleout | serve | sweep | resume
    argv: list
    files: dict = field(default_factory=dict)  # name -> text
    # sweep: journal file name; resume: (journal to cut, cut fraction)
    journal: str = ""
    cut: float = 0.0
    expect: dict = field(default_factory=dict)


def balanced(rng, values, n):
    """n draws from values, each value used floor(n/k) or ceil(n/k)
    times, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def categories(rng, n, shares):
    """Exactly round(share * n) slots per named category, the rest
    'plain', in seeded order."""
    slots = []
    for name, share in shares:
        slots += [name] * round(share * n)
    slots += ["plain"] * (n - len(slots))
    rng.shuffle(slots)
    return slots


EDGE_SHARE = 0.65
EDGE_BUFFERS = ["256KiB", "1MiB", "2MiB"]
CLOUD_BUFFERS = ["16MiB", "64MiB"]
EDGE_BW = ["25GB/s", "100GB/s"]
CLOUD_BW = ["200GB/s", "800GB/s"]


def alias(rng, model):
    """trxl and flaubert share hidden size, heads and FF width, so every
    search costs the same on both; only the model-scope depth differs.
    The seed picks between them."""
    if model in ("trxl", "flaubert"):
        return rng.choice(["trxl", "flaubert"])
    return model


def explore(seed, n=EXPLORE_REQUESTS):
    """Exhaustive-mode run requests, as the paper's DSE figures issue
    them: the five paper models on edge and cloud, seq 512-65536, batch
    {1, 8, 64}, scope {la, block, model}, FLAT/Base-opt policies and
    ATTACC/FlexAccel specs, with --style all, --block, --devices and
    --kv-seq slices and buffer / bandwidth overrides."""
    design = random.Random("explore-design")
    rng = random.Random(f"explore:{seed}")
    kinds = categories(design, n, [("style_all", 0.15), ("block", 0.10),
                                   ("devices", 0.10), ("kv_seq", 0.10)])
    seqs = balanced(design, [512, 1024, 2048, 4096, 8192, 16384, 32768,
                             65536], n)
    batches = balanced(design, [1, 8, 64], n)
    scopes = balanced(design, ["la", "block", "model"], n)
    # Edge requests search several times longer than cloud ones. An even
    # split would put the median between the two clusters, where it jumps
    # from run to run; 13 of 20 on edge, in every category, keep the
    # median and the p90 inside a cluster.
    platforms = [None] * n
    for kind in sorted(set(kinds)):
        slots = [i for i, k in enumerate(kinds) if k == kind]
        edge = round(len(slots) * EDGE_SHARE)
        for j, i in enumerate(slots):
            platforms[i] = "edge" if j < edge else "cloud"
    models = balanced(design, PAPER_MODELS, n)
    dataflows = balanced(design, [("policy", "flat-opt"),
                                  ("policy", "base-opt"),
                                  ("accel", "attacc"),
                                  ("accel", "flexaccel")], n)
    buffers = [design.random() < 0.25 for _ in range(n)]
    bandwidths = [design.random() < 0.25 for _ in range(n)]
    edge_buffers = balanced(design, EDGE_BUFFERS, n)
    cloud_buffers = balanced(design, CLOUD_BUFFERS, n)
    edge_bws = balanced(design, EDGE_BW, n)
    cloud_bws = balanced(design, CLOUD_BW, n)
    devices = balanced(design, [2, 4, 8], n)
    fused = [design.choice([("policy", "flat-opt"), ("accel", "attacc")])
             for _ in range(n)]
    kv_seqs = balanced(design, [512, 1024, 2048, 4096], n)
    requests = []
    for i, kind in enumerate(kinds):
        platform = platforms[i]
        argv = ["--model", alias(rng, models[i]), "--platform", platform,
                "--seq", str(seqs[i]), "--batch", str(batches[i])]
        flag, name = dataflows[i]
        if kind == "devices":
            # Scale-out shards the fused execution: fused policies only.
            flag, name = fused[i]
        argv += [f"--{flag}", name]
        if kind != "block":
            argv += ["--scope", scopes[i]]
        if buffers[i]:
            argv += ["--buffer", edge_buffers[i] if platform == "edge"
                     else cloud_buffers[i]]
        if bandwidths[i]:
            argv += ["--offchip-bw", edge_bws[i] if platform == "edge"
                     else cloud_bws[i]]
        request_kind = "run"
        if kind == "style_all":
            argv += ["--style", "all"]
        elif kind == "block":
            argv += ["--block"]
            request_kind = "block"
        elif kind == "devices":
            argv += ["--devices", str(devices[i])]
            request_kind = "scaleout"
        elif kind == "kv_seq":
            argv += ["--kv-seq", str(kv_seqs[i])]
        requests.append(Request(request_kind, argv + ["--threads", "1",
                                                      "--json"]))
    rng.shuffle(requests)
    return requests


def serve(seed, n=SERVE_REQUESTS):
    """--serve requests with the default analytic mapper: the paper
    models plus mistral (GQA), poisson/bursty arrivals at 2-16 req/s,
    16-32 requests per trace, prompts of 256-2048 tokens, 8-32 output
    tokens, max-batch {4, 8, 16}, both batching policies and a slice of
    --sched auto."""
    design = random.Random("serve-design")
    rng = random.Random(f"serve:{seed}")
    kinds = categories(design, n, [("auto", 0.08)])
    models = balanced(design, PAPER_MODELS + ["mistral"], n)
    platforms = balanced(design, PLATFORMS, n)
    arrivals = balanced(design, ["poisson", "bursty"], n)
    max_batches = balanced(design, [4, 8, 16], n)
    scheds = balanced(design, ["prefill-first", "decode-first"], n)
    requests = []
    for i, kind in enumerate(kinds):
        trace_len = design.randint(16, 32)
        # An auto search serves the trace once per style and policy;
        # on edge that takes seconds, so the auto slice runs on cloud.
        platform = "cloud" if kind == "auto" else platforms[i]
        argv = ["--serve", "--model", models[i],
                "--platform", platform,
                "--arrival", arrivals[i],
                "--rate", f"{2 * 8 ** design.random():.3g}",
                "--serve-requests", str(trace_len),
                "--serve-seed", str(design.randrange(1, 1 << 31)),
                "--prompt-tokens", str(design.randint(256, 2048)),
                "--output-tokens", str(design.randint(8, 32)),
                "--max-batch", str(max_batches[i]),
                "--sched", "auto" if kind == "auto" else scheds[i],
                "--threads", "1", "--json"]
        requests.append(Request("serve", argv,
                                expect={"offered": trace_len}))
    rng.shuffle(requests)
    return requests


def sweep(seed, specs=SWEEP_SPECS, journaled=SWEEP_JOURNALED):
    """Small quick-menu sweeps: 2 models x 2 platforms x 2 policies x 2
    seq x 1 batch at block or model scope. `journaled` of the specs are
    journaled into a fresh file and followed by a --resume from a 25-75%
    prefix of that journal (a crash mid-sweep); the others run without a
    journal."""
    design = random.Random("sweep-design")
    rng = random.Random(f"sweep:{seed}")
    # A quick sweep's cost follows how many of its two policies search
    # their dataflow: none, one or both. The journaled specs search
    # none, so journaled sweeps and their resumes rank below the median
    # and the quantiles fall on unjournaled sweeps, whose time does not
    # follow the disk; the journal's cost shows in req_per_s.
    searched = specs // 4
    policies = [FIXED_POLICIES] * journaled + [
        [design.choice(SEARCHED_POLICIES), design.choice(FIXED_POLICIES)]
        for _ in range(specs - journaled - searched)
    ] + [SEARCHED_POLICIES] * searched
    scopes = balanced(design, ["block", "model"], specs)
    # Where a crash cuts each journal: an even grid over 25-75% of its
    # bytes, dealt to the journaled sweeps by the design, so that every
    # seed restores the same share of each. The seed moves each cut by
    # at most a few records.
    cells = [0.25 + 0.5 * (i + 0.5) / journaled for i in range(journaled)]
    design.shuffle(cells)
    units = []
    for i in range(specs):
        spec = "\n".join([
            "models = " + ", ".join(alias(rng, m) for m in
                                    design.sample(PAPER_MODELS, 2)),
            "platforms = edge, cloud",
            "policies = " + ", ".join(policies[i]),
            "seq = " + ", ".join(str(s) for s in sorted(
                design.sample([256, 512, 1024, 2048, 4096], 2))),
            f"batch = {design.choice([1, 8, 16])}",
            f"scope = {scopes[i]}",
            "quick = true",
        ]) + "\n"
        spec_name = f"sweep{i}.sweep"
        files = {spec_name: spec}
        if i >= journaled:
            units.append([Request(
                "sweep", ["--sweep", spec_name, "--threads", "1", "--json"],
                files=files, expect={"points": 16})])
            continue
        journal = f"sweep{i}.journal"
        cut = cells[i] + rng.uniform(-CUT_JITTER, CUT_JITTER)
        units.append([Request(
            "sweep", ["--sweep", spec_name, "--journal", journal,
                      "--threads", "1", "--json"],
            files=files, journal=journal, expect={"points": 16}), Request(
            "resume", ["--sweep", spec_name, "--resume", journal + ".cut",
                       "--threads", "1", "--json"],
            files=files, journal=journal, cut=cut, expect={"points": 16})])
    rng.shuffle(units)
    return [request for unit in units for request in unit]


WORKLOADS = {"explore": explore, "serve": serve, "sweep": sweep}


def setup_probe(platform):
    """Start-up probe: one fixed FLAT L-A dataflow on a minimal shape,
    so nearly all of its wall time is process start, flag and config
    parsing, registries, Simulator construction and report rendering."""
    return Request("run", ["--model", "bert", "--platform", platform,
                           "--policy", "flat-r64", "--seq", "512",
                           "--batch", "1", "--scope", "la",
                           "--threads", "1", "--json"])
