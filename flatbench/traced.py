"""The traced run: per-layer metrics from in-process twins.

Each request of the list runs once as a flatsim process and then as
its twin, flatbench_trace, which performs the same request in-process
with a span around every call into a layer (see tracer.cc). The twin
runs twice, with spans on and off; the difference is the tracing
overhead. Serve requests add a probe of the step shapes and the serving
event loop, sweeps a replay of every point. A request fails when the
CLI fails its checks, when a twin exits nonzero, when the twin's
simulated outputs differ from the CLI's, or when its spans do not nest.

Every *_ms and count metric is a mean per traced request of the
workload, with requests on which the layer did no work counting as
zero, so the layer times of one part add up. METRICS.md lists which
end-to-end metric and workload each one is expected to move.
"""

import json
import os
from collections import defaultdict

import checks
import stats
from harness import checked, cut_journal, label, prepare


def twin_argv(request):
    """The request's argv with the journal files renamed, so the twin
    never touches the files of the CLI run."""
    argv = list(request.argv)
    for flag, suffix in (("--journal", ".twin"), ("--resume", ".twin")):
        if flag in argv:
            argv[argv.index(flag) + 1] += suffix
    return argv


def reset_twin_journal(workdir, request, argv):
    """A fresh journal for a journaled sweep twin; the cut prefix for a
    resume twin."""
    if request.kind == "sweep" and "--journal" in argv:
        path = os.path.join(workdir, argv[argv.index("--journal") + 1])
        if os.path.exists(path):
            os.remove(path)
    elif request.kind == "resume":
        cut_journal(workdir, request, argv[argv.index("--resume") + 1])


def parse_twin(outcome):
    checks.require(outcome.returncode == 0,
                   f"twin exit code {outcome.returncode}: "
                   f"{outcome.stderr.strip()[-300:]}")
    try:
        return json.loads(outcome.stdout)
    except ValueError as exc:
        raise checks.CheckError(f"unparseable twin output: {exc}") from None


def same(expected, got, path="result"):
    """Raises CheckError at the first simulated output the twin did not
    reproduce. Only fields present on both sides are compared."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in expected.keys() & got.keys():
            same(expected[key], got[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(got, list):
        checks.require(len(expected) == len(got),
                       f"{path}: {len(got)} entries, CLI has "
                       f"{len(expected)}")
        for i, (e, g) in enumerate(zip(expected, got)):
            same(e, g, f"{path}[{i}]")
    else:
        checks.require(expected == got,
                       f"{path}: twin {got!r} != CLI {expected!r}")


REQUIRED = {"run": ("picked_dataflow", "cycles", "breakdown_cycles"),
            "scaleout": ("picked_dataflow", "cycles", "scaleout"),
            "block": ("layers", "model_cycles"),
            "serve": ("p99_s", "tokens_per_s", "completion_order"),
            "sweep": ("results",), "resume": ("results",)}


def faithful(request, outputs, result):
    """The twin reproduces the CLI's simulated outputs."""
    missing = [k for k in REQUIRED[request.kind] if k not in result]
    checks.require(not missing, f"twin result lacks {', '.join(missing)}")
    same(outputs, result)


def span_times(doc):
    """Per-span (name, parent, duration, self time) in ns, after checking
    that every child lies inside its parent."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent < 0:
            continue
        outer = spans[parent]
        checks.require(
            outer["start_ns"] <= span["start_ns"] and
            span["start_ns"] + span["dur_ns"] <=
            outer["start_ns"] + outer["dur_ns"],
            f"span {span['name']} escapes its parent {outer['name']}")
        child_ns[parent] += span["dur_ns"]
    return [(s["name"], s["parent"], s["dur_ns"], s["dur_ns"] - child_ns[i])
            for i, s in enumerate(spans)]


def root_of(doc, times):
    roots = [t for t in times if t[0] == "request" and t[1] < 0]
    checks.require(len(roots) == 1, "twin has no single request span")
    checks.require(roots[0][2] <= doc["request_ns"],
                   "request span longer than the in-process request")
    return roots[0]


class Totals:
    """Span and counter sums over the traced requests, by part."""

    def __init__(self):
        self.dur = defaultdict(float)    # (part, name) -> ns
        self.self = defaultdict(float)   # (part, name) -> ns
        self.counters = defaultdict(float)
        self.extra = defaultdict(float)
        self.overheads_ms = []
        self.tracing_ms = []
        self.requests = 0

    def add(self, part, doc, times):
        for name, _, dur, self_ns in times:
            self.dur[(part, name)] += dur
            self.self[(part, name)] += self_ns
        for name, value in doc["counters"].items():
            self.counters[name] += value

    def span_ms(self, name, parts=("request", "points", "probe")):
        return sum(self.dur[(p, name)] for p in parts) / 1e6 / self.n

    def count(self, name):
        return self.counters[name] / self.n

    @property
    def n(self):
        return max(self.requests, 1)


def ratio(num, den):
    return num / den if den else 0.0


def trace_request(request, runner, flatsim, tracer, previous, totals):
    """Runs one request and its twins; returns the CLI's simulated
    outputs. Raises CheckError when any of them fails."""
    workdir = runner.workdir
    prepare(workdir, request)
    argv = twin_argv(request)
    cli = runner.spawn([flatsim] + request.argv)
    outputs = checked(request, cli, previous)

    reset_twin_journal(workdir, request, argv)
    on = parse_twin(runner.spawn([tracer, "--"] + argv))
    faithful(request, outputs, on["result"])
    reset_twin_journal(workdir, request, argv)
    off = parse_twin(runner.spawn([tracer, "--no-spans", "--"] + argv))
    faithful(request, outputs, off["result"])
    times = span_times(on)
    root = root_of(on, times)

    parts = [("request", on, times)]
    if request.kind == "sweep":
        points = parse_twin(runner.spawn([tracer, "--part", "points", "--"]
                                         + argv))
        faithful(request, outputs, points["result"])
        parts.append(("points", points, span_times(points)))
    elif request.kind == "serve":
        probe = parse_twin(runner.spawn([tracer, "--part", "probe", "--"]
                                        + argv))
        parts.append(("probe", probe, span_times(probe)))

    totals.requests += 1
    for part, doc, part_times in parts:
        totals.add(part, doc, part_times)
    totals.overheads_ms.append(cli.latency_s * 1e3 - root[2] / 1e6)
    totals.extra["root_ns"] += root[2]
    totals.extra["root_self_ns"] += root[3]
    totals.extra["on_ns"] += on["request_ns"]
    totals.extra["off_ns"] += off["request_ns"]
    totals.tracing_ms.append((on["request_ns"] - off["request_ns"]) / 1e6)
    if request.kind == "sweep":
        sweep_ns = sum(t[2] for t in times if t[0] == "core.sweep")
        replay_ns = sum(t[2] for t in parts[1][2] if t[0] == "core.run")
        totals.extra["sweep_self_ns"] += sweep_ns - replay_ns
    if request.kind == "resume":
        totals.extra["resume_points"] += on["counters"]["core.sweep_points"]
    return outputs


def layer_metrics(t, metrics):
    n = t.n
    c = t.counters
    evaluated = c["dse.attention_evaluated"]
    space = evaluated + c["dse.attention_pruned"]
    serving_ms = t.span_ms("serving.run", ("request",)) + \
        t.span_ms("serving.search", ("request",))
    loop_ms = t.span_ms("serving.loop", ("probe",))
    rows = [
        ("core.run_ms", t.span_ms("core.run", ("request",)), "ms"),
        ("core.self_ms", t.self[("request", "core.run")] / 1e6 / n, "ms"),
        ("dse.attention_ms", t.span_ms("dse.attention"), "ms"),
        ("dse.attention_evaluated", evaluated / n, "count"),
        ("dse.attention_space", space / n, "count"),
        ("dse.prune_ratio", ratio(c["dse.attention_pruned"], space),
         "ratio"),
        ("dse.ns_per_evaluated",
         ratio(t.span_ms("dse.attention") * n * 1e6, evaluated), "ns"),
        ("dse.mapper_ms", t.span_ms("dse.mapper"), "ms"),
        ("dse.mapper_evaluated", t.count("dse.mapper_evaluated"), "count"),
        ("costmodel.eval_ns", ratio(c["costmodel.eval_ns"],
                                    c["costmodel.eval_samples"]), "ns"),
        ("dse.operator_ms", t.span_ms("dse.operator"), "ms"),
        ("dse.operator_evaluated", t.count("dse.operator_evaluated"),
         "count"),
        ("dse.block_ms", t.span_ms("dse.block"), "ms"),
        ("dse.block_reused_layers", t.count("dse.block_reused_layers"),
         "count"),
        ("scaleout.search_ms", t.span_ms("scaleout.search"), "ms"),
        ("scaleout.evaluated", t.count("scaleout.evaluated"), "count"),
        ("serving.arrivals_ms", t.span_ms("serving.arrivals", ("request",)),
         "ms"),
        ("serving.run_ms", t.span_ms("serving.run", ("request",)), "ms"),
        ("serving.search_ms", t.span_ms("serving.search", ("request",)),
         "ms"),
        ("serving.steps", t.count("serving.steps"), "count"),
        ("serving.lookups", t.count("serving.lookups"), "count"),
        ("serving.memo_hit_ratio", ratio(c["serving.memo_hits"],
                                         c["serving.lookups"]), "ratio"),
        ("serving.priced_steps", t.count("serving.priced_steps"), "count"),
        ("serving.loop_ms", loop_ms, "ms"),
        ("serving.pricing_ms", serving_ms - loop_ms, "ms"),
        ("serving.ms_per_priced_step",
         ratio((serving_ms - loop_ms) * n, c["serving.priced_steps"]), "ms"),
        ("core.sweep_ms", t.span_ms("core.sweep", ("request",)), "ms"),
        ("core.sweep_self_ms", t.extra["sweep_self_ns"] / 1e6 / n, "ms"),
        ("core.sweep_points", t.count("core.sweep_points"), "count"),
        ("core.sweep_restored_ratio", ratio(c["core.sweep_restored"],
                                            t.extra["resume_points"]),
         "ratio"),
        ("common.journal_write_ms",
         t.span_ms("common.journal_write", ("request",)), "ms"),
        ("common.journal_read_ms",
         t.span_ms("common.journal_read", ("request",)), "ms"),
        ("common.journal_records", t.count("common.journal_records"),
         "count"),
        ("common.journal_bytes", t.count("common.journal_bytes"), "bytes"),
        ("flatsim.overhead_ms", stats.median(t.overheads_ms), "ms"),
        ("costmodel.timeline_ms", t.span_ms("costmodel.timeline"), "ms"),
        ("energy.ms", t.span_ms("energy"), "ms"),
        ("trace.overhead_ms", stats.median(t.tracing_ms), "ms"),
        ("trace.overhead_ratio", ratio(t.extra["on_ns"] - t.extra["off_ns"],
                                       t.extra["off_ns"]), "ratio"),
        ("trace.attributed_ratio",
         ratio(t.extra["root_ns"] - t.extra["root_self_ns"] -
               t.self[("request", "core.run")], t.extra["root_ns"]),
         "ratio"),
        ("trace.requests", t.requests, "count"),
    ]
    for name, value, unit in rows:
        metrics.add(name, value, unit)


def measure(requests, runner, flatsim, tracer, workload):
    """One pass over the list, each request with its traced twins."""
    tally = stats.Tally()
    totals = Totals()
    previous = None
    for index, request in enumerate(requests):
        outputs = None
        error = None
        try:
            outputs = trace_request(request, runner, flatsim, tracer,
                                    previous, totals)
        except checks.CheckError as exc:
            error = exc
        tally.record(label(index, request), error)
        previous = outputs if request.kind == "sweep" else None
    metrics = stats.Metrics()
    layer_metrics(totals, metrics)
    print(f"{workload} traced {totals.requests} of {len(requests)} "
          f"requests; every twin reproduced its CLI outputs"
          if tally.failed == 0 else
          f"{workload} traced {totals.requests} of {len(requests)} requests")
    return tally, metrics, []
