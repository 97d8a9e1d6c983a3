"""Output checks and the simulated-output digest.

check_report() decides whether one flatsim report is correct for its
request; simulated() keeps only the simulated statistics of a report,
which is what the digest hashes and what the traced replay must
reproduce. Wall-clock fields and search counters are left out, so the
digest of two commits agrees whenever their simulated outputs do.
"""

import hashlib
import json


class CheckError(Exception):
    """A report that does not carry what its request must produce."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def parse_report(stdout):
    """The first JSON document of a --json report."""
    text = stdout.decode() if isinstance(stdout, bytes) else stdout
    line = text.split("\n", 1)[0]
    try:
        report = json.loads(line)
    except ValueError as exc:
        raise CheckError(f"unparseable report: {exc}") from None
    require(isinstance(report, dict), "report is not a JSON object")
    return report


def has(report, *keys):
    missing = [k for k in keys if k not in report]
    require(not missing, f"report lacks {', '.join(missing)}")


def check_run(report, argv):
    has(report, "picked_dataflow", "cycles", "ideal_cycles", "energy_j",
        "dram_bytes", "breakdown_cycles")
    require(report["cycles"] > 0, "cycles must be positive")
    require(report["cycles"] >= report["ideal_cycles"],
            f"cycles {report['cycles']!r} < ideal_cycles "
            f"{report['ideal_cycles']!r}")
    require(report["energy_j"] > 0, "energy must be positive")
    if "--devices" in argv:
        has(report, "scaleout")
        devices = int(argv[argv.index("--devices") + 1])
        require(report["scaleout"].get("devices") == devices,
                "scale-out report for the wrong device count")


def check_block(report):
    has(report, "layers", "block_cycles", "model_cycles", "model_energy_j")
    require(report["layers"], "block report has no layers")
    require(0 < report["block_cycles"] <= report["model_cycles"],
            "block cycles must be positive and at most the model's")


def check_serve(report, request):
    has(report, "offered", "completed", "p50_s", "p95_s", "p99_s",
        "tokens_per_s", "completion_order")
    offered = request.expect["offered"]
    require(report["offered"] == offered,
            f"offered {report['offered']} != {offered} requests")
    require(report["completed"] == report["offered"],
            f"completed {report['completed']} != offered "
            f"{report['offered']}")
    require(sorted(report["completion_order"]) == list(range(offered)),
            "completion order is not a permutation of the trace")
    require(0 < report["p50_s"] <= report["p95_s"] <= report["p99_s"],
            "latency percentiles out of order")
    require(report["tokens_per_s"] > 0, "tokens/s must be positive")


def check_sweep(report, request):
    has(report, "points", "completed", "failed", "results")
    points = request.expect["points"]
    require(report["points"] == points and report["completed"] == points,
            f"{report['completed']} of {report['points']} points "
            f"completed, expected {points}")
    for result in report["results"]:
        require(result.get("status") == "ok",
                f"point {result.get('tag')} is {result.get('status')}")
        cycles = result["report"]["cycles"]
        require(cycles > 0, f"point {result['tag']} has no cycles")


def check_report(request, returncode, stdout):
    """Parsed report of a request that exited 0 with a report carrying
    its mode's fields; raises CheckError otherwise."""
    require(returncode == 0, f"exit code {returncode}")
    report = parse_report(stdout)
    kind = request.kind
    if kind in ("run", "scaleout"):
        check_run(report, request.argv)
    elif kind == "block":
        check_block(report)
    elif kind == "serve":
        check_serve(report, request)
    else:
        check_sweep(report, request)
    return report


RUN_FIELDS = ("picked_dataflow", "cycles", "ideal_cycles", "energy_j",
              "dram_bytes", "sg_bytes", "breakdown_cycles",
              "la_stage_cycles")
SCALEOUT_FIELDS = ("devices", "shard_axis", "device_dataflow", "la_cycles",
                   "la_cycles_single_device", "fleet_energy_j")
SERVE_FIELDS = ("style", "completed", "p50_s", "p95_s", "p99_s", "mean_s",
                "makespan_s", "tokens_per_s", "completion_order")
POINT_FIELDS = ("picked_dataflow", "cycles", "energy_j", "dram_bytes",
                "runtime_s", "utilization")


def pick(report, fields):
    return {k: report[k] for k in fields if k in report}


def simulated(kind, report):
    """The simulated statistics of a report: no wall-clock fields and
    no search counters."""
    if kind in ("run", "scaleout"):
        out = pick(report, RUN_FIELDS)
        if "scaleout" in report:
            out["scaleout"] = pick(report["scaleout"], SCALEOUT_FIELDS)
        return out
    if kind == "block":
        return {"layers": [pick(layer, ("name", "dataflow", "cycles",
                                        "energy_j"))
                           for layer in report["layers"]],
                **pick(report, ("block_cycles", "model_cycles",
                                "model_energy_j"))}
    if kind == "serve":
        return pick(report, SERVE_FIELDS)
    return {"results": [{"tag": r["tag"], "status": r["status"],
                         **pick(r.get("report", {}), POINT_FIELDS)}
                        for r in report["results"]]}


class Digest:
    """Running hash over the simulated outputs of a request list."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, outputs):
        text = json.dumps(outputs, sort_keys=True)
        self._hash.update(text.encode())
        self._hash.update(b"\n")

    def hexdigest(self):
        return self._hash.hexdigest()[:16]
