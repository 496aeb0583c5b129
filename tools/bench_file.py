"""Record one BENCH_<n>.json: the performance record of the working tree.

    python3 tools/bench_file.py

Run it from any directory; it works on the repository that holds it and
writes the next free BENCH_<n>.json at its root.  It uses the
standard library only.  It runs ``perfbench/run.py`` and imports
``perfbench/ops.py`` in child processes, read-only, and records:

- the commit, whether the tree differs from it, a digest of ``src/``, nproc
  (the CPUs this process may run on) and the Python version;
- the median of ``RUNS`` runs (seeds 1..RUNS) of each last-line metric of
  ``perfbench/run.py`` for ``certify`` and ``encode`` at the run length
  of ``BENCHMARK.json``, with the run count;
- the best of 3 one-process wall times of the ``certify`` pool's ``ok``
  entries (``ops.run_certify``) and of the ``analyze`` pool
  (``ops.run_analyze``), each pass in a fresh process with cold caches, and
  the number of report digests that differ from the pools' references;
- the wall time and max RSS of ``oracle tests/golden/full-z4.spec --window
  0:9`` in a child process;
- the ``src/`` line count, the tier-1 wall time and summary, and the call
  time of acceptance criterion 2.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT / "perfbench")]))
WORKLOADS = ("certify", "encode")
RUNS = 5  # fixed, so that successive records take medians over as many runs
POOL_REPEATS = 3
CRITERION_2 = "tests/test_acceptance.py::test_criterion_2_oracle_equivalence"

#: One pass over a pool in a fresh process: its wall time, its size and the
#: number of digests that differ from the references (checked after timing).
POOL_SCRIPT = """
import json, sys, time
import ops
kind, path = sys.argv[1:]
entries = json.loads(open(path).read())["entries"]
if kind == "certify":
    entries = [e for e in entries if e["ref"]["status"] == "ok"]
run = ops.run_certify if kind == "certify" else ops.run_analyze
values = ops.certify_values if kind == "certify" else ops.analyze_values
shifts = [ops.build_shift(e["alphabet"], e["gens"]) for e in entries]
start = time.perf_counter()
results = [run(shift) for shift in shifts]
wall = time.perf_counter() - start
bad = sum(ops.digest(values(r)[0]) != e["ref"]["digest"] for r, e in zip(results, entries))
print(json.dumps([wall, len(entries), bad]))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def src_digest() -> tuple[int, str]:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return sum(len(p.read_text().splitlines()) for p in files), digest.hexdigest()


def bench(seconds: int) -> dict:
    out = {"runs": RUNS, "seconds": seconds, "seeds": list(range(1, RUNS + 1))}
    for workload in WORKLOADS:
        results = []
        for seed in out["seeds"]:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        metrics = {name: statistics.median(r["metrics"][name]["value"] for r in results)
                   for name in results[0]["metrics"]}
        out[workload] = {"median": metrics, "correct": all(r["correct"] for r in results),
                         "attempted": [r["attempted"] for r in results],
                         "failed": [r["failed"] for r in results]}
    return out


def pools() -> dict:
    out = {"repeats": POOL_REPEATS}
    for kind in ("certify", "analyze"):
        path = ROOT / "perfbench" / "data" / f"{kind}.json"
        passes = [json.loads(subprocess.run(
            [sys.executable, "-c", POOL_SCRIPT, kind, str(path)], env=ENV, cwd=ROOT,
            capture_output=True, text=True, check=True).stdout)
            for _ in range(POOL_REPEATS)]
        out[kind] = {"best_s": min(p[0] for p in passes), "entries": passes[0][1],
                     "digest_mismatches": max(p[2] for p in passes)}
    return out


def oracle() -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "groupshift", "oracle",
                             "tests/golden/full-z4.spec", "--window", "0:9"],
                            env=ENV, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": time.perf_counter() - start, "max_rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode}


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors", "-p", "no:cacheprovider",
                           "--durations=0"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    crit = next((float(m.group(1)) for line in lines
                 if (m := re.match(rf"([\d.]+)s call\s+{re.escape(CRITERION_2)}$", line))),
                None)
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else "",
            "criterion_2_s": crit}


def next_path() -> Path:
    taken = {int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))}
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count()


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    lines, digest = src_digest()
    record = {"commit": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "src_sha256": digest, "nproc": nproc(),
              "python": platform.python_version(), "src_lines": lines,
              "bench": bench(seconds), "pools": pools(),
              "oracle_full_z4_0_9": oracle()}
    record["tier1"] = tier1()
    record["criterion_2_s"] = record["tier1"].pop("criterion_2_s")
    out = next_path()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
