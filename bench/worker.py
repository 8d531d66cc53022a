"""Workload process of the dscodes benchmark; started by run.py.

Imports dscodes from the checkout's src/, builds the workload's fields
(warm workloads only), then repeats the workload's job list in passes
until --seconds have gone by, and prints one JSON object with per-pass
wall and CPU time, machine-speed samples taken between jobs, job
outcomes, peak RSS and, for traced passes, the per-layer span
aggregates.  With --setup-only it stops after set-up.

Cold workloads run each job in a child forked from this process after
`import dscodes` and before any field is built, so the job pays its own
field build just as a fresh CLI process does, without timing the
interpreter start again.  Job outputs are checked after a pass's timed
region ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads  # imports neither numpy nor dscodes, so the timed import below is cold

ROOT = Path(__file__).resolve().parents[1]
JOB_TIMEOUT_S = 60
ERRORS_KEPT = 5
SPEED_EVERY_S = 0.25  # job time between two machine-speed samples (calibrate.py)


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job ran over {JOB_TIMEOUT_S} s")


def run_inline(job, seed):
    """(exit code, stdout, error) of one job in this process."""
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        code, out = job.run(seed)
        return code, out, None
    except Exception:  # a crash or a timeout is a failed job, not a failed benchmark
        return None, None, f"{job.name}: {traceback.format_exc(limit=3)}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _read_all(fd, timeout):
    chunks, deadline = [], time.monotonic() + timeout
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return b"".join(chunks), True
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks), False
        chunks.append(chunk)


def run_forked(job, seed, traced):
    """(exit code, stdout, error, spans, child peak RSS in KiB) of one job
    run in a forked child that is waited for before returning."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        status = 1
        try:
            os.close(rfd)
            tracer = None
            if traced:
                from tracer import Tracer
                tracer = Tracer()
                tracer.install()
            code, out, error = run_inline(job, seed)
            payload = {"code": code, "out": out, "error": error,
                       "spans": tracer.spans if tracer else []}
            view = memoryview(json.dumps(payload, default=int).encode())
            while view:
                view = view[os.write(wfd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        data, timed_out = _read_all(rfd, JOB_TIMEOUT_S)
    finally:
        os.close(rfd)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    if timed_out or not data:
        why = "timed out" if timed_out else f"child ended with status {status}"
        return None, None, f"{job.name}: {why}", [], usage.ru_maxrss
    rec = json.loads(data)
    return rec["code"], rec["out"], rec["error"], rec["spans"], usage.ru_maxrss


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(wl, seed, tracer, calibrator):
    """Run the job list once; return (record, outcomes, spans, start, end).

    An untraced pass takes a machine-speed sample before its first job,
    before each job that follows SPEED_EVERY_S of jobs since the last
    sample, and after its last job; the pass's wall and CPU time leave
    the samples out."""
    outcomes, spans = [], []
    job_s, speed = [], []
    calibrating_s = cpu_s = 0.0
    unsampled_s = SPEED_EVERY_S

    def sample_speed():
        nonlocal calibrating_s
        t = time.perf_counter()
        speed.append(calibrator.sample())
        calibrating_s += time.perf_counter() - t

    start = time.perf_counter()
    if tracer and not wl.cold:
        tracer.install()
    try:
        for job in wl.jobs:
            if tracer is None and unsampled_s >= SPEED_EVERY_S:
                sample_speed()
                unsampled_s = 0.0
            cpu0 = _cpu_s()
            t = time.perf_counter()
            if wl.cold:
                code, out, error, child_spans, rss = run_forked(job, seed, tracer is not None)
                base = len(spans)
                spans += [[*s[:3], s[3] + base if s[3] >= 0 else -1, *s[4:]] for s in child_spans]
                outcomes.append((code, out, error, rss))
            else:
                outcomes.append((*run_inline(job, seed), 0))
            job_s.append(time.perf_counter() - t)
            unsampled_s += job_s[-1]
            cpu_s += _cpu_s() - cpu0
        if tracer is None:
            sample_speed()
    finally:
        if tracer and not wl.cold:
            spans = tracer.take()
            tracer.uninstall()
    end = time.perf_counter()
    record = {
        "traced": tracer is not None,
        "seed": seed,
        "wall_s": end - start - calibrating_s,
        "cpu_s": cpu_s,
        "speed": speed,
        "jobs": len(wl.jobs),
        "job_s": dict(zip((job.name for job in wl.jobs), job_s)),
        "failed": [],
        "child_rss_kb": max(o[3] for o in outcomes),
    }
    return record, outcomes, spans, start, end


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import dscodes
    import dscodes.cli  # what `python -m dscodes` imports
    import_s = time.perf_counter() - t0
    if not Path(dscodes.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: dscodes imported from {dscodes.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    for p, m in wl.fields:  # both call forms the program uses, so both caches are warm
        dscodes.get_field(p, m)
        dscodes.get_field(p, m, None)
    setup_spans = []
    if tracer:
        setup_spans = tracer.take()
        tracer.uninstall()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    import numpy
    from calibrate import Calibrator
    from tracer import accounting, aggregate, tree

    calibrator = Calibrator()
    calibrator.sample()  # warm-up, not kept

    signal.signal(signal.SIGALRM, _on_alarm)
    passes, errors, first_tree, selfcheck = [], [], None, None
    begin = time.perf_counter()
    while True:
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 1
        seed = args.seed * 1000 + i
        record, outcomes, spans, start, end = run_pass(wl, seed, tracer if traced else None,
                                                      calibrator)
        for job, (code, out, error, _rss) in zip(wl.jobs, outcomes):
            if not workloads.check(job, code, out, seed):
                record["failed"].append(job.name)
                if len(errors) < ERRORS_KEPT:
                    errors.append(error or f"{job.name}: exit {code} or output differs")
        if selfcheck is None:
            selfcheck = _self_check(wl, outcomes, seed)
        if traced:
            self_s, gap_s = accounting(spans, start, end)
            record["accounted_s"] = self_s + gap_s
            record["agg"] = aggregate(setup_spans + spans)
            if first_tree is None:
                first_tree = {"setup": tree(setup_spans, setup_spans[0][1] if setup_spans else 0.0),
                              "pass": tree(spans, start)}
        passes.append(record)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= wl.min_passes and elapsed + typical > args.seconds:
            break

    print(json.dumps({
        "ready": ready,
        "import_s": import_s,
        "numpy": numpy.__version__,
        "policy": wl.policy,
        "cold": wl.cold,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "selfcheck": selfcheck,
        "errors": errors,
        "tree": first_tree,
    }, default=int))
    return 0


def _self_check(wl, outcomes, seed) -> bool:
    """Corrupting one expected digest must raise the error rate that the
    same outcomes score: the gate really compares digests."""
    name = next(job.name for job in wl.jobs if job.rule is None)
    corrupted = dict(workloads.EXPECTED, **{name: workloads.EXPECTED[name][::-1]})

    def error_rate(expected):
        return sum(not workloads.check(job, code, out, seed, expected=expected)
                   for job, (code, out, _error, _rss) in zip(wl.jobs, outcomes)) / len(wl.jobs)

    return error_rate(corrupted) > error_rate(workloads.EXPECTED)


if __name__ == "__main__":
    sys.exit(main())
