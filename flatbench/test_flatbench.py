"""Tests of the benchmark itself: the percentile rule, failure
accounting, metric printing and the request generators.

    python3 -m unittest discover -s flatbench

No flatsim build is needed: a scripted runner stands in for the CLI.
"""

import contextlib
import io
import json
import os
import re
import tempfile
import unittest

import checks
import run
import stats
import traced
import workloads
from harness import Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def report_for(request):
    """A report that passes every check for its request."""
    if request.kind == "serve":
        n = request.expect["offered"]
        return {"style": "default", "offered": n, "completed": n,
                "p50_s": 0.1, "p95_s": 0.2, "p99_s": 0.3, "mean_s": 0.1,
                "makespan_s": 2.0, "tokens_per_s": 50.0,
                "completion_order": list(range(n))}
    if request.kind in ("sweep", "resume"):
        points = request.expect["points"]
        return {"points": points, "completed": points, "failed": 0,
                "wall_ms": 3.0,
                "results": [{"tag": f"p{i}", "status": "ok", "wall_ms": 1.0,
                             "report": {"picked_dataflow": "fused:x",
                                        "cycles": 10.0 + i}}
                            for i in range(points)]}
    if request.kind == "block":
        return {"layers": [{"name": "Q", "dataflow": "d", "cycles": 5.0}],
                "block_cycles": 5.0, "model_cycles": 60.0,
                "model_energy_j": 1.0}
    return {"picked_dataflow": "fused:x", "cycles": 10.0,
            "ideal_cycles": 8.0, "energy_j": 1.0, "dram_bytes": 4.0,
            "breakdown_cycles": {"la": 10.0}}


class ScriptedRunner:
    """Answers each request with a passing report, except where a test
    scripted a fault: fault(request, call) -> Outcome or None."""

    def __init__(self, workdir, fault=None):
        self.workdir = workdir
        self.fault = fault
        self.calls = 0

    def spawn(self, argv):
        request = self.request_for(argv[1:])
        self.calls += 1
        scripted = self.fault(request, self.calls) if self.fault else None
        if scripted is not None:
            return scripted
        if request.kind == "sweep" and request.journal:
            path = os.path.join(self.workdir, request.journal)
            with open(path, "w") as f:
                f.write("journal\n" * 8)
        return Outcome(0.01, 0, json.dumps(report_for(request)).encode(),
                       1024, "")

    def request_for(self, argv):
        for request in self.requests + self.probes:
            if request.argv == argv:
                return request
        raise AssertionError(f"unexpected argv {argv}")


def sweep_pair():
    return workloads.sweep(1, specs=1, journaled=1)


def run_measure(requests, fault=None):
    with tempfile.TemporaryDirectory() as workdir:
        runner = ScriptedRunner(workdir, fault)
        runner.requests = requests
        runner.probes = [workloads.setup_probe(p)
                         for p in workloads.PLATFORMS]
        with contextlib.redirect_stdout(io.StringIO()):
            return run.measure(requests, runner, "flatsim", 0, "test")


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(99)), 0.9))
        value, beyond, count = stats.tail_percentile(list(range(100)), 0.9)
        self.assertEqual((value, beyond, count), (89, 10, 100))

    def test_nearest_rank(self):
        self.assertEqual(stats.nearest_rank([1, 2, 3, 4], 0.5), (2, 2))
        self.assertEqual(stats.nearest_rank([5], 0.9), (5, 0))

    def test_sample_count_printed_next_to_p90(self):
        tally, metrics, problems = run_measure(sweep_pair())
        self.assertEqual(problems, [])
        line = next(l for l in metrics.lines("w") if "req_p90_ms" in l)
        self.assertIn(f"n={tally.attempted}", line)
        self.assertIn("beyond", line)


class FailureAccounting(unittest.TestCase):
    def fails_once(self, fault):
        requests = sweep_pair()
        tally, metrics, _ = run_measure(requests, fault)
        self.assertEqual(tally.failed, 1, tally.reasons)
        self.assertEqual(len(tally.reasons), 1)
        ok = metrics.as_dict()["ok_ratio"]["value"]
        self.assertAlmostEqual(ok, 1 - 1 / tally.attempted)
        return tally

    def test_nonzero_exit_counts_once(self):
        def fault(request, call):
            if request.kind == "sweep" and call == 2:
                return Outcome(0.01, 1, b"", 1024, "config error\n")
            return None
        tally = self.fails_once(fault)
        self.assertIn("exit code 1", tally.reasons[0])

    def test_failed_check_counts_once(self):
        def fault(request, call):
            if request.kind == "sweep" and call == 2:
                report = report_for(request)
                report["completed"] = 15
                return Outcome(0.01, 0, json.dumps(report).encode(), 1, "")
            return None
        self.fails_once(fault)

    def test_resume_mismatch_counts_once(self):
        def fault(request, call):
            if request.kind == "resume" and call == 3:
                report = report_for(request)
                report["results"][3]["report"]["cycles"] = 1.0
                return Outcome(0.01, 0, json.dumps(report).encode(), 1, "")
            return None
        tally = self.fails_once(fault)
        self.assertIn("resumed sweep differs", tally.reasons[0])

    def test_wall_clock_fields_do_not_count(self):
        def fault(request, call):
            if request.kind == "resume":
                report = report_for(request)
                report["wall_ms"] = 99.0
                report["results"][0]["wall_ms"] = 42.0
                return Outcome(0.01, 0, json.dumps(report).encode(), 1, "")
            return None
        tally, _, _ = run_measure(sweep_pair(), fault)
        self.assertEqual(tally.failed, 0, tally.reasons)

    def test_cycles_below_ideal_fails_a_run(self):
        request = workloads.explore(1)[0]
        report = report_for(request)
        report["ideal_cycles"] = report["cycles"] * 2
        with self.assertRaises(checks.CheckError):
            checks.check_report(request, 0, json.dumps(report))

    def test_serve_needs_every_request_completed(self):
        request = workloads.serve(1)[0]
        report = report_for(request)
        report["completed"] -= 1
        with self.assertRaises(checks.CheckError):
            checks.check_report(request, 0, json.dumps(report))


class MetricPrinting(unittest.TestCase):
    def test_every_end_to_end_metric_with_name_and_unit(self):
        _, metrics, _ = run_measure(sweep_pair())
        printed = metrics.as_dict()
        lines = list(metrics.lines("w"))
        for metric in BENCHMARK["end_to_end"]:
            self.assertEqual(printed[metric["name"]]["unit"], metric["unit"])
            self.assertTrue(any(f" {metric['name']} = " in line and
                                line.split("(")[0].rstrip().endswith(
                                    " " + metric["unit"])
                                for line in lines), metric["name"])

    def test_every_per_layer_metric_with_name_and_unit(self):
        metrics = stats.Metrics()
        traced.layer_metrics(traced.Totals(), metrics)
        printed = metrics.as_dict()
        self.assertEqual(sorted(printed),
                         sorted(m["name"] for m in BENCHMARK["per_layer"]))
        for metric in BENCHMARK["per_layer"]:
            self.assertEqual(printed[metric["name"]]["unit"], metric["unit"])

    def test_duplicate_metric_rejected(self):
        metrics = stats.Metrics()
        metrics.add("a", 1, "ms")
        with self.assertRaises(ValueError):
            metrics.add("a", 2, "ms")


class Generators(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for make in workloads.WORKLOADS.values():
            self.assertEqual(make(7), make(7))

    def test_design_is_shared_across_seeds(self):
        def shape(request):
            argv = [a for a in request.argv
                    if a not in ("trxl", "flaubert")]
            if "--kv-seq" in argv:
                del argv[argv.index("--kv-seq") + 1]
            return " ".join(argv)
        a = sorted(shape(r) for r in workloads.explore(1))
        b = sorted(shape(r) for r in workloads.explore(2))
        self.assertEqual(a, b)

    def test_scale_out_only_on_fused_policies(self):
        for request in workloads.explore(3):
            if "--devices" in request.argv:
                self.assertTrue({"flat-opt", "attacc"} & set(request.argv))

    def test_explore_mix(self):
        requests = workloads.explore(1)
        argv = [r.argv for r in requests]
        self.assertEqual(sum("--style" in a for a in argv), 9)
        self.assertEqual(sum("--block" in a for a in argv), 6)
        self.assertEqual(sum("--devices" in a for a in argv), 6)
        self.assertEqual(sum("--kv-seq" in a for a in argv), 6)

    def test_each_resume_follows_its_journaled_sweep(self):
        requests = workloads.sweep(5)
        resumes = [i for i, r in enumerate(requests) if r.kind == "resume"]
        self.assertEqual(len(resumes), workloads.SWEEP_JOURNALED)
        self.assertEqual(len(requests),
                         workloads.SWEEP_SPECS + workloads.SWEEP_JOURNALED)
        for i in resumes:
            sweep, resume = requests[i - 1], requests[i]
            self.assertEqual(sweep.kind, "sweep")
            self.assertTrue(sweep.journal)
            self.assertEqual(sweep.journal, resume.journal)
            self.assertTrue(0.25 <= resume.cut <= 0.75)
            # The cheapest specs: no policy searches its dataflow.
            self.assertIn("policies = " + ", ".join(workloads.FIXED_POLICIES),
                          next(iter(sweep.files.values())))
        plain = [r for r in requests if r.kind == "sweep" and not r.journal]
        self.assertEqual(len(plain),
                         workloads.SWEEP_SPECS - workloads.SWEEP_JOURNALED)
        for request in plain:
            self.assertNotIn("--journal", request.argv)

    def test_sweep_design_is_shared_across_seeds(self):
        def shape(requests):
            out = []
            for r in requests:
                spec = re.sub(r"trxl|flaubert", "trxl|flaubert",
                              next(iter(r.files.values())))
                out.append((r.kind, r.argv[1], spec, round(r.cut, 1)))
            return sorted(out)
        a, b = workloads.sweep(1), workloads.sweep(2)
        self.assertEqual(shape(a), shape(b))
        cuts_a = {r.journal: r.cut for r in a if r.kind == "resume"}
        for r in b:
            if r.kind == "resume":
                self.assertLessEqual(abs(r.cut - cuts_a[r.journal]),
                                     2 * workloads.CUT_JITTER)

    def test_twin_never_touches_the_cli_journal(self):
        sweep, resume = sweep_pair()
        self.assertNotEqual(traced.twin_argv(sweep), sweep.argv)
        self.assertNotIn(sweep.journal, traced.twin_argv(sweep))
        self.assertNotIn(sweep.journal + ".cut", traced.twin_argv(resume))


if __name__ == "__main__":
    unittest.main()
