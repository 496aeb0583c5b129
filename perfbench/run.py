"""groupshift benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload {certify,analyze,encode,oracle} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics and the tracing
overhead.  The last stdout line is the result object; the lines before it
give the machine context and every failed operation with its cause.  Each
run also writes its full result under ``.perfbench_out/``.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("certify", "analyze", "encode", "oracle")
#: Set-up-only processes per run, besides the timed passes.
SETUP_REPEATS = 2
#: Whole-run wall limit; workers still running then are killed.
RUN_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def tail_percentile(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile q (nearest rank) with at least ten
    samples above its rank, and its value; the median (q = 50) when fewer
    samples would put q below 50."""
    xs = sorted(samples)
    n = len(xs)
    q = 99
    while q > 50 and n - math.ceil(q * n / 100) < 10:
        q -= 1
    if q == 50:
        return statistics.median(xs), 50
    return xs[math.ceil(q * n / 100) - 1], q


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def spawn(deadline: float, *args: str) -> tuple[float, float, dict | None]:
    """Run one worker; (seconds from spawn to ready, the same rescaled to the
    probe's reference speed by a probe before the spawn and one at ready,
    its result or None)."""
    probe = speed.SpeedProbe()
    probe.probe()
    started = time.time()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker {' '.join(args)} exceeded the run limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.splitlines()
    _, at, cost = lines[0].split()
    ready = float(at) - started
    at_ref = ready * speed.REF_S / ((probe.samples[0][2] + float(cost)) / 2)
    return ready, at_ref, (json.loads(lines[-1]) if len(lines) > 1 else None)


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    import corpus  # needs the library on the path, checked in main

    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    spawns = [spawn(deadline, *common, "--setup-only") for _ in range(SETUP_REPEATS)]
    for k in range(corpus.PASSES):
        spawns.append(spawn(deadline, *common, "--trace", "0", *(["--repeat"] if k else [])))
    passes = [s[2] for s in spawns[SETUP_REPEATS:]]
    first = passes[0]
    failures = {f["op"]: f for p in reversed(passes) for f in p["failures"]}
    run = {"attempted": first["attempted"], "failed": len(failures),
           "wrong": sum(p["wrong"] for p in passes),
           "failures": [failures[i] for i in sorted(failures)]}
    ok = run["attempted"] - run["failed"]

    def times(setups, key):
        # each operation's time is its median over the passes that ran it
        samples: dict[int, list[float]] = {}
        for p in passes:
            for i, t in zip(p["ops"], p[key]):
                samples.setdefault(i, []).append(t)
        durations = [statistics.median(samples[i]) for i in first["ops"]]
        tail, q = tail_percentile(durations)
        return q, {"setup_s": statistics.median(setups),
                   "op_p50_s": statistics.median(durations), "op_tail_s": tail,
                   "ops_per_s": ok / sum(durations)}

    q, at_ref = times([s[1] for s in spawns], "scaled")
    _, wall = times([s[0] for s in spawns], "durations")
    metrics = {name: (value, "1/s" if name == "ops_per_s" else "s")
               for name, value in at_ref.items()}
    metrics["ok_ratio"] = (ok / run["attempted"], "ratio")
    metrics["peak_rss_mb"] = (first["peak_rss_mb"], "MB")
    extra = {"setup_samples_s": [s[1] for s in spawns], "tail_percentile": q,
             "samples": run["attempted"],
             "repeated": len(passes[-1]["ops"]) if len(passes) > 1 else 0,
             "wall": wall}
    return run, metrics, extra


def traced(workload: str, seed: int, seconds: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    run = spawn(deadline, *common, "--seconds", str(seconds), "--trace", "1")[2]
    # the first half of the same operations untraced, in a fresh process
    plain = spawn(deadline, *common, "--seconds", str(seconds / 2), "--trace", "0")[2]
    n = min(run["attempted"], plain["attempted"])
    t_traced = sum(run["durations"][:n])
    t_plain = sum(plain["durations"][:n])
    metrics = {k: (v, unit) for k, (v, unit) in run["layers"].items()}
    metrics["trace.ops_per_s_traced"] = (n / t_traced, "1/s")
    metrics["trace.ops_per_s_untraced"] = (n / t_plain, "1/s")
    metrics["trace.overhead"] = (1 - t_plain / t_traced, "ratio")
    extra = {"overhead_ops": n, "spans": run["spans"]}
    return run, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "groupshift" / "__init__.py").is_file():
        print(f"error: no groupshift sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    measure = traced if args.trace else end_to_end
    try:
        run, metrics, extra = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "python": platform.python_version(), "src_lines": src_lines(),
               "attempted": run["attempted"], "failed": run["failed"], **extra}
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print("context: " + json.dumps(context))
    for f in run["failures"]:
        print("failed: " + json.dumps(f))
    result = {"correct": run["wrong"] == 0, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "context": context, "failures": run["failures"]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
