"""Benchmark of the dscodes pipeline, driven from outside the program.

    python3 bench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads (job lists and checks in workloads.py):

  catalogue  hundreds of small claim instances through `dscodes.cli.main`,
             in json, text and csv; fields built once in set-up (warm).
  big_code   four large single codes or fields through the CLI, plus
             scripts/verify_paper.py, each in a fresh forked process that
             builds its own fields (cold).
  analysis   full MacWilliams dual, summary and Pless moments on codes of
             length 1-2k, and two `ssreport` runs; fields warm.

One run starts --setup-only workers SETUP_SAMPLES - 1 times, then one
measuring worker that repeats the job list for --seconds (at least the
workload's minimum number of passes).  The seed reaches the program only
as `--seed`, on the jobs that take one: pass i gets seed * 1000 + i, so
a seed fixes every input of a run.  BLAS/OpenMP thread variables are
pinned to 1, no `--threads` is passed and one job runs at a time.

End-to-end metrics (--trace 0), every workload:
  run_s        median over untraced passes of the wall time of one pass
               over the job list, at reference machine speed
  setup_s      median over set-ups of interpreter start + `import dscodes`
               + the warm workloads' `get_field` for every (p, m) used,
               at reference machine speed
  peak_rss_mb  peak RSS of the worker, or of its largest job child (cold)
"At reference machine speed": the host's speed drifts by 15-30 % over
tens of seconds, so the worker times a fixed calibration loop
(calibrate.py) between jobs, at most every 0.25 s of job time, and
before and after each pass, and run.py three times before each set-up;
a pass's or set-up's wall time is divided by the mean of the samples
around it.  The times as measured are printed beside them and kept in
the run's record.
Failed jobs count in `failed` of `attempted` (the error rate); a job fails
when it raises, times out, exits other than documented or its output
differs.  The result is `correct` only when no job failed, the gate
rejected a corrupted expected digest and, traced, the spans add up.

With --trace 1 the worker alternates untraced and traced passes; traced
passes wrap the layer entry points (tracer.py) and yield the per-layer
metrics as medians over traced passes, and `trace.overhead_s` is the
traced minus the untraced median pass time.  On warm workloads the
field.* figures include the set-up's builds, made outside run_s.
Self times plus untraced gaps must add up to each traced pass's wall
time.  Each run writes its figures, the environment and (traced) the
span tree of one pass to .bench_out/ in the checkout.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Human-readable lines go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalogue", "big_code", "analysis")
SETUP_SAMPLES = 6
SETUP_SPEED_SAMPLES = 3  # machine-speed samples before each set-up (calibrate.py)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170  # one workload's run must end within 180 s
ACCOUNTING_TOLERANCE = 1e-3  # share of a traced pass that spans + gaps may miss


class BenchError(Exception):
    pass


def _worker(argv, env, timeout):
    """Run a worker to completion in its own process group; return its
    start time (monotonic) and the JSON object on its last stdout line."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} ran over {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker and its job child
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return start, json.loads(out.strip().splitlines()[-1])


def _environment(numpy_version):
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _per_layer(passes, import_samples):
    """Per-layer metrics: medians over traced passes of per-pass figures."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        agg = p["agg"]

        def get(key, name):
            return agg.get(key, {}).get(name, 0)

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        instances = get("theorems", "reports")
        rows.append({
            "field.build.calls": get("field.build", "calls"),
            "field.build.self_s": get("field.build", "self_s"),
            "field.build.ns_per_element": per(get("field.build", "self_s"),
                                              get("field.build", "sum_q"), 1e9),
            "field.tables_mb": get("field.build", "table_bytes") / 2**20,
            "sets.build.calls": get("sets.build", "calls"),
            "sets.build.self_s": get("sets.build", "self_s"),
            "code.weights.calls": get("code.weights", "calls"),
            "code.weights.self_s": get("code.weights", "self_s"),
            "code.weights.ns_per_codeword": per(get("code.weights", "self_s"),
                                                get("code.weights", "sum_q"), 1e9),
            "code.weights.small_call_us": per(get("code.weights", "small_self_s"),
                                              get("code.weights", "small_calls"), 1e6),
            "code.dual.calls": get("code.dual", "calls"),
            "code.dual.self_s": get("code.dual", "self_s"),
            "spectra.calls": get("spectra", "calls"),
            "spectra.self_s": get("spectra", "self_s"),
            "theorems.instances": instances,
            "theorems.self_s": get("theorems", "self_s"),
            "theorems.weights_calls_per_instance": per(get("code.weights", "calls"), instances, 1),
            "secretshare.minimal.calls": get("secretshare.minimal", "calls"),
            "secretshare.minimal.self_s": get("secretshare.minimal", "self_s"),
            "cli.render.self_s": get("cli.render", "self_s"),
            "cli.render.bytes": get("cli.render", "bytes"),
            "cli.main.self_s": get("cli.main", "self_s"),
        })
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    metrics["process.import_s"] = statistics.median(import_samples)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    return metrics


def run_workload(name, seed, seconds, trace, per_layer_units):
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    began = time.monotonic()
    setup_samples, setup_speed, import_samples = [], [], []
    calibrator = Calibrator()
    calibrator.sample()  # warm-up, not kept

    def start_worker(argv, timeout):
        setup_speed.append(statistics.mean(calibrator.sample() for _ in range(SETUP_SPEED_SAMPLES)))
        return _worker(argv, env, timeout)

    for _ in range(SETUP_SAMPLES - 1):
        start, rec = start_worker(["--workload", name, "--setup-only"], 60)
        setup_samples.append(rec["ready"] - start)
        import_samples.append(rec["import_s"])
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start, rec = start_worker(argv, max(10.0, RUN_LIMIT_S - (time.monotonic() - began)))
    if not trace:  # a traced set-up is slower and is not a set-up sample
        setup_samples.append(rec["ready"] - start)
    import_samples.append(rec["import_s"])
    # each set-up at reference speed: its time over the mean of the speed
    # samples taken just before its worker started (calibrate.py)
    setup_scaled = [t / v for t, v in zip(setup_samples, setup_speed)]

    passes = rec["passes"]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    # each untraced pass at reference speed: its wall time over the mean of
    # the speed samples taken around its jobs.  The machine flips between a
    # fast and a slow state every few seconds, so the mean, not the median,
    # of the samples tracks the share of the pass it spent slow (calibrate.py)
    speed = [x for p in passes for x in p["speed"]]
    scaled = [p["wall_s"] / statistics.mean(p["speed"]) for p in passes if not p["traced"]]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    traced = [p for p in passes if p["traced"]]
    accounting_ok = all(abs(p["accounted_s"] - p["wall_s"]) <= ACCOUNTING_TOLERANCE * p["wall_s"]
                        for p in traced)
    correct = failed == 0 and rec["selfcheck"] and accounting_ok
    cold = rec["cold"]
    rss_kb = max(p["child_rss_kb"] for p in passes) if cold else rec["peak_rss_kb"]

    if trace:
        values = _per_layer(passes, import_samples)
        metrics = {k: {"value": v, "unit": per_layer_units[k]} for k, v in values.items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }

    def log(text):
        print(f"[{name}] {text}", file=sys.stderr)

    q1, q3 = _quartiles(scaled)
    log(f"seed={seed} seconds={seconds} trace={trace}")
    log(f"policy       {rec['policy']}")
    log(f"run_s        {statistics.median(scaled):.4f} s   median of {len(untraced)} "
        f"untraced passes at reference speed (q1 {q1:.4f}, q3 {q3:.4f}); "
        f"as timed {statistics.median(untraced):.4f} s")
    log(f"setup_s      {statistics.median(setup_scaled):.4f} s   median of "
        f"{len(setup_samples)} set-ups at reference speed; as timed "
        f"{statistics.median(setup_samples):.4f} s")
    log(f"speed        {statistics.mean(speed):.3f} x reference time, mean of "
        f"{len(speed)} samples between jobs ({min(speed):.3f}-{max(speed):.3f}); "
        f"set-up {statistics.mean(setup_speed):.3f}")
    log(f"peak_rss_mb  {rss_kb / 1024:.1f} MB  " + (
        f"largest of {attempted} job children" if cold else "worker process"))
    log(f"error_rate   {failed / attempted:.4f}  ({failed} of {attempted} jobs failed)")
    log(f"self-check   corrupted digest {'rejected' if rec['selfcheck'] else 'NOT rejected'}")
    for error in rec["errors"]:
        log(f"error: {error.strip()}")
    if trace:
        run_t = statistics.median(p["wall_s"] for p in traced)
        log(f"traced run_s {run_t:.4f} s over {len(traced)} passes; spans + gaps "
            f"{'account' if accounting_ok else 'DO NOT account'} for every traced pass")
        for key in ("field.build.self_s", "code.weights.self_s", "code.dual.self_s",
                    "secretshare.minimal.self_s", "theorems.self_s", "sets.build.self_s",
                    "cli.render.self_s", "cli.main.self_s", "spectra.self_s"):
            where = "set-up, outside run_s" if key.startswith("field.") and not cold else \
                f"{values[key] / run_t:.1%} of traced run_s"
            log(f"  {key:<28} {values[key]:.4f} s  {where}")
        log(f"  trace.overhead_s             {values['trace.overhead_s']:.4f} s")

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "policy": rec["policy"],
        "environment": _environment(rec["numpy"]),
        "setup_samples_s": setup_samples, "import_samples_s": import_samples,
        "setup_speed": setup_speed, "run_s_as_timed": statistics.median(untraced),
        "passes": passes,
        "metrics": metrics, "correct": correct, "attempted": attempted, "failed": failed,
        "errors": rec["errors"], "span_tree": rec["tree"],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description="dscodes benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/dscodes/__init__.py", "scripts/verify_paper.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a dscodes checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, units) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
