"""echo-toolkit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
src/.  Every pass runs in a fresh process (workloads.py) and every answer
is checked against reference.py.

--trace 0 runs rounds of passes until the next one would end after S
seconds (at least MIN_ROUNDS) and prints the end-to-end metrics.
--trace 1 runs a fixed set instead: one untraced pass, one traced pass
(spans around each library call), one pass with threads=1 for workloads
that sweep, and the four probe groups (probes.py); it prints the per-layer
metrics.  Metric names and units are the ones BENCHMARK.json declares;
a run that cannot produce all of them is not correct.  Earlier stdout
lines carry the run environment and the per-pass values; the last line
is the result object.  The same record, spans included, is written to
.perfbench_out/ in the checkout.
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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import reference
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

RUN_BUDGET_S = 170.0  # a run must end within 180 s, whatever its children do
MIN_ROUNDS = 2
CAL_STEPS = 100_000
CAL_REF_S = 0.1  # end-to-end times are scaled to a machine where _calibrate() takes this long
CAL_SHARE = 0.05  # calibration time after each round, as a share of that round's wall time
CALIBRATED = ("setup_s", "solve_s", "cpu_s")
SWEEP_WORKLOADS = ("echo-sweep", "family-scan")
PROBE_GROUPS = ("sweep", "fabulous", "aglgroup", "density")
SPAN_LAYERS = ("pass", "sweep", "fabulous", "aglgroup", "density")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _calibrate() -> float:
    """Seconds for a fixed pure-Python loop of modular products, modular
    inverses and dict stores, the operations the passes spend their time in.

    Sampled between passes, it tracks the speed the machine gives this
    process at that moment; on a shared machine that speed drifts by a
    third over minutes.
    """
    t0 = time.perf_counter()
    p, x, seen = 1_000_003, 1, {}
    for _ in range(CAL_STEPS):
        x = x * 7919 % p
        seen[x] = pow(x, -1, p)
    return time.perf_counter() - t0


def _run_child(argv: list[str], deadline: float) -> dict | None:
    """Run a perfbench script in a fresh interpreter; its last stdout line is JSON.

    Returns None when it fails or outlives the deadline; its whole process
    group (pool workers included) is then killed and reaped.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ECHO_THREADS", None)  # the passes set threads= explicitly
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {argv[:2]} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        print(f"perfbench: {argv[:2]} exited {proc.returncode}\n{err}", file=sys.stderr)
        return None
    res = json.loads(out.strip().splitlines()[-1])
    res["wall_s"] = time.monotonic() - spawned
    if "ready_at" in res:
        res["setup_s"] = res["ready_at"] - spawned
    return res


def _failures(res: dict | None, expected: dict) -> int:
    """Checks failed by one pass or probe; a crash or timeout fails them all."""
    got = res["got"] if res else {}
    return sum(got.get(name) != want for name, want in expected.items())


def _run_pass(workload: str, threads: int, traced: bool, pass_id: str, deadline: float):
    argv = ["workloads.py", workload, "--threads", str(threads), "--trace", str(int(traced)),
            "--pass-id", pass_id]
    return _run_child(argv, deadline)


def measure(workload: str, seed: int, seconds: int, workers: int, names, deadline: float):
    """Untraced passes for about `seconds`, in rounds, with calibration
    samples before the first round and after each one.

    Every round keeps all `workers` CPUs busy: a sweep pass runs its own
    worker pool, and the serial twoadic pass runs `workers` times side by
    side.  Returns the passes, the calibration samples and the metrics.  A
    time metric is the mean over passes times CAL_REF_S / (mean calibration
    sample): passes and calibration slow down together when the machine
    does, and a ratio of means cancels that where a median would not.
    Peak memory is the median over passes.
    """
    side_by_side = 1 if workload in SWEEP_WORKLOADS else workers
    start = time.monotonic()
    passes, cal, rounds = [], [_calibrate()], 0
    with ThreadPoolExecutor(side_by_side) as pool:
        while True:
            ids = [f"{workload}-{seed}-{len(passes) + i}" for i in range(side_by_side)]
            t0 = time.monotonic()
            batch = list(pool.map(lambda pid: _run_pass(workload, workers, False, pid, deadline), ids))
            round_s = time.monotonic() - t0
            passes += batch
            rounds += 1
            if None in batch:
                break
            cal_end = time.monotonic() + CAL_SHARE * round_s
            cal.append(_calibrate())
            while time.monotonic() < cal_end:
                cal.append(_calibrate())
            if rounds >= MIN_ROUNDS and time.monotonic() - start + round_s > seconds:
                break
    ok = [p for p in passes if p]
    if not ok:
        return passes, cal, {}
    scale = CAL_REF_S / statistics.fmean(cal)
    metrics = {
        name: statistics.fmean(p[name] for p in ok) * scale if name in CALIBRATED
        else statistics.median(p[name] for p in ok)
        for name in names
    }
    return passes, cal, metrics


def trace(workload: str, seed: int, workers: int, deadline: float):
    """One untraced and one traced pass, a threads=1 pass, and every probe group."""
    base = _run_pass(workload, workers, False, f"{workload}-{seed}-untraced", deadline)
    traced = _run_pass(workload, workers, True, f"{workload}-{seed}-traced", deadline)
    passes = [base, traced]
    if workload in SWEEP_WORKLOADS:
        serial = _run_pass(workload, 1, False, f"{workload}-{seed}-serial", deadline)
        passes.append(serial)
    else:
        serial = base  # the twoadic pass takes no worker count; it is serial
    probes = {g: _run_child(["probes.py", g, "--seed", str(seed)], deadline) for g in PROBE_GROUPS}
    if not (all(passes) and all(probes.values())):
        return passes, probes, {}

    metrics = {}
    for res in probes.values():
        metrics.update(res["metrics"])
    metrics["sweep.serial_s"] = serial["solve_s"]
    metrics["sweep.parallel_eff"] = serial["solve_s"] / (workers * base["solve_s"])
    metrics["sweep.primes"] = base["primes"]
    metrics["sweep.hits"] = base["hits"]
    metrics["sweep.primes_per_s"] = base["primes"] / base["solve_s"]
    metrics["trace.overhead_ratio"] = traced["solve_s"] / base["solve_s"] - 1
    metrics["trace.spans"] = len(traced["spans"])
    own = self_times(traced["spans"])
    for layer in SPAN_LAYERS:
        metrics[f"trace.self_s.{layer}"] = sum(
            own[s["id"]] for s in traced["spans"] if s["name"].split(".")[0] == layer
        )
    return passes, probes, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="echo-toolkit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(reference.PASS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "echotk" / "__init__.py").is_file():
        print(f"perfbench: no echotk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    workers = len(os.sched_getaffinity(0))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    expected = reference.PASS[args.workload]
    if args.trace:
        passes, probes, metrics = trace(args.workload, args.seed, workers, deadline)
        cal = []
        checks = [(p, expected) for p in passes] + [(probes[g], reference.PROBES[g]) for g in PROBE_GROUPS]
    else:
        passes, cal, metrics = measure(args.workload, args.seed, args.seconds, workers, units, deadline)
        probes = {}
        checks = [(p, expected) for p in passes]
    attempted = sum(len(want) for _, want in checks)
    failed = sum(_failures(res, want) for res, want in checks)
    correct = failed == 0 and set(metrics) == set(units)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "nproc": workers,
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": next((p["numpy"] for p in passes if p), None),
            "platform": platform.platform(),
        },
        "fail_ratio": failed / attempted,
        "calibration_s": cal,
        "passes": passes,
        "probes": probes,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    summary = {k: record[k] for k in ("workload", "seed", "trace", "env", "fail_ratio", "calibration_s")}
    summary["passes"] = [
        None if p is None else {k: p.get(k) for k in ("setup_s", "solve_s", "cpu_s", "peak_rss_mb", "wall_s")}
        for p in passes
    ]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
