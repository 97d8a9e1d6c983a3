"""Spawning requests and preparing and checking their files."""

import os
import subprocess
import threading
import time
from dataclasses import dataclass

import checks

REQUEST_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One finished child: wall latency, exit code, stdout bytes, peak
    resident set (ru_maxrss, KiB) and stderr text."""

    latency_s: float
    returncode: int
    stdout: bytes
    maxrss_kb: int
    stderr: str


class Runner:
    """Spawns one child at a time and times it from spawn until it has
    exited and its stdout has been read."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.stderr_path = os.path.join(workdir, "stderr.txt")

    def spawn(self, argv):
        with open(self.stderr_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=err, cwd=self.workdir)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            latency = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return Outcome(latency, proc.returncode, out, usage.ru_maxrss,
                       stderr)


def write_inputs(requests, workdir):
    for request in requests:
        for name, text in request.files.items():
            with open(os.path.join(workdir, name), "w") as f:
                f.write(text)


def cut_journal(workdir, request, target):
    """Copies the seeded prefix of the sweep's journal to target: the
    state a crash mid-sweep leaves behind."""
    path = os.path.join(workdir, request.journal)
    data = b""
    if os.path.exists(path):  # absent when the sweep itself failed
        with open(path, "rb") as f:
            data = f.read()
    with open(os.path.join(workdir, target), "wb") as f:
        f.write(data[:int(len(data) * request.cut)])


def prepare(workdir, request):
    """Resets the journal files a request reads or writes."""
    if request.kind == "sweep" and request.journal:
        path = os.path.join(workdir, request.journal)
        if os.path.exists(path):
            os.remove(path)
    elif request.kind == "resume":
        cut_journal(workdir, request, request.journal + ".cut")


def label(index, request):
    return f"#{index} {request.kind} {' '.join(request.argv)}"


def checked(request, outcome, previous):
    """The simulated outputs of a request's report; raises CheckError
    when the request failed. previous: the outputs of the uninterrupted
    sweep a resume must reproduce (None when that sweep failed, which is
    already counted)."""
    if outcome.returncode != 0:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        raise checks.CheckError(
            f"exit code {outcome.returncode}: {tail[0][:300]}")
    report = checks.check_report(request, outcome.returncode,
                                 outcome.stdout)
    outputs = checks.simulated(request.kind, report)
    if request.kind == "resume" and previous is not None:
        checks.require(outputs == previous,
                       "resumed sweep differs from its uninterrupted run")
    return outputs
