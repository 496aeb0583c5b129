"""One measured process: set up a workload, run it in a closed loop, report.

Started by run.py, one fresh process per pass of a run, because the
library's ``lru_cache``s are process-global:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        [--repeat] [--setup-only]

Set-up imports the library and builds the seeded corpus (and, for encode,
synthesizes the encoders); then the worker prints ``ready <wall clock>
<probe cost>`` (see ``speed.py``).
The loop runs one operation at a time through the first
``corpus.run_length(W, S)`` operations of the schedule: the work that took S
seconds when the pools were recorded, the same for every seed.  It stops
early only if the operations have taken SAFETY * S seconds.  Output checks
and a full garbage collection run between operations with the clock
stopped, and the survivors are frozen, so each operation starts from the
same collector state and its collections scan only its own objects.
Untraced runs time each operation with ``speed.SpeedProbe``, which also
rescales its time to the probe's reference speed.  With ``--repeat`` the
worker runs only the operations that ``corpus.repeated`` names, as a later
pass of the same run.  The last stdout line is one JSON object with the raw
results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SAFETY = 4
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import ops  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from groupshift import words  # noqa: E402


@dataclass
class Item:
    label: str                              # the input, for failure lists
    run: Callable[[], object]               # the timed operation
    check: Callable[[object], str | None]   # cause of a wrong output, or None


def _ref_cause(ref: dict, values, verdict: str) -> str | None:
    if ref["status"] == "ok" and ops.digest(values) != ref["digest"]:
        return (f"report differs from the reference (verdict {verdict}, "
                f"reference {ref['verdict']})")
    return None


def _shift_items(workload: str, seed: int, count: int) -> list[Item]:
    items = []
    entries = corpus.schedule(corpus.load_pool(workload)["entries"], seed, workload)
    for entry in entries[:count]:
        shift = ops.build_shift(entry["alphabet"], entry["gens"])
        ref = entry["ref"]
        if workload == "certify":
            def check(result, ref=ref, gens=entry["gens"], orders=shift.alphabet.orders):
                values, verdict = ops.certify_values(result)
                cause = _ref_cause(ref, values, verdict)
                if cause is None and values["complete"]:
                    hi = oracles.widest_window(orders, 4, 1 << 12)
                    taps = values["encoder"]["taps"]
                    if oracles.window_code(orders, taps, 0, hi) != \
                            oracles.window_code(orders, gens, 0, hi):
                        cause = f"encoder image differs from the window code on [0,{hi}]"
                return cause
            items.append(Item(entry["key"], lambda s=shift: ops.run_certify(s), check))
        elif workload == "analyze":
            items.append(Item(entry["key"], lambda s=shift: ops.run_analyze(s),
                              lambda r, ref=ref: _ref_cause(ref, *ops.analyze_values(r))))
        else:
            hi = corpus.oracle_hi(shift.alphabet.orders)
            items.append(Item(f"{entry['key']} on [0,{hi}]",
                              lambda s=shift, hi=hi: ops.run_oracle(s, hi),
                              lambda r, ref=ref, hi=hi:
                                  _ref_cause(ref, *ops.oracle_values(r, hi))))
    return items


def _encode_items(seed: int, count: int) -> list[Item]:
    entries = corpus.load_pool("encode")["entries"]
    certs = [ops.run_certify(ops.build_shift(e["alphabet"], e["gens"])) for e in entries]
    encs = [cert.product_encoder for _, cert in certs]
    plan = corpus.message_plan(seed, [enc.source.orders for enc in encs], count)
    messages = [words.Word.make(encs[j].source, 0, syms) for j, syms in plan]
    enc_causes = [_ref_cause(e["ref"], *ops.certify_values(cert))
                  for e, cert in zip(entries, certs)]

    items = []
    for (j, syms), msg in zip(plan, messages):
        enc = encs[j]
        taps = [(t.start, t.symbols) for t in enc.taps]

        def check(word, j=j, syms=syms, taps=taps, orders=enc.alphabet.orders):
            cause = enc_causes[j]
            if cause is None and (word.start, word.symbols) != \
                    oracles.naive_encode(orders, taps, 0, syms):
                cause = "encoded word differs from the naive tap sum"
            return cause
        items.append(Item(f"{entries[j]['key']} message of {len(syms)} symbols",
                          lambda e=enc, m=msg: ops.run_encode(e, m), check))
    return items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("certify", "analyze", "encode", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true",
                        help="run only the operations timed in every pass")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    count = corpus.run_length(args.workload, args.seconds)
    items = (_encode_items(args.seed, count) if args.workload == "encode"
             else _shift_items(args.workload, args.seed, count))
    ready = time.time()
    probe = speed.SpeedProbe()
    probe.probe()
    print(f"ready {ready:.6f} {probe.samples[0][2]:.9f}", flush=True)
    if args.setup_only:
        return 0

    wanted = set(corpus.repeated(args.workload, args.seed, count)
                 if args.repeat else range(count))
    tr = caches = before = None
    if args.trace:
        probe = None
        tr = tracer.Tracer()
        caches = tracer.install(tr)
        before = {k: c.cache_info() for k, c in caches.items()}

    done: list[int] = []
    durations: list[float] = []
    scaled: list[float] = []
    failures: list[dict] = []
    wrong = 0
    measured = 0.0
    clock = time.perf_counter
    for i, item in enumerate(items):
        if measured >= SAFETY * args.seconds:
            break
        if i not in wanted:
            continue
        run = item.run
        if tr is not None:
            tr.op = i
            run = tr.wrap("op", args.workload, run)
        error = None
        result = None
        gc.collect()
        gc.freeze()
        started = clock()
        try:
            result = probe.run(run) if probe else run()
        except Exception as exc:  # a raising operation is a failed one
            error = f"{type(exc).__name__}: {exc}"
        if probe:
            elapsed, at_ref = speed.scaled_time(probe.samples)
        else:
            elapsed = at_ref = clock() - started
        measured += elapsed
        done.append(i)
        durations.append(elapsed)
        scaled.append(at_ref)
        cause = error
        if cause is None:
            try:
                cause = item.check(result)
            except Exception as exc:  # an output the checks cannot read is wrong
                cause = f"output check raised {type(exc).__name__}: {exc}"
        if cause:
            wrong += error is None
            failures.append({"op": i, "input": item.label, "cause": cause})

    out = {"attempted": len(durations), "failed": len(failures), "wrong": wrong,
           "measured_s": measured, "ops": done, "durations": durations,
           "scaled": scaled,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "failures": failures}
    if tr is not None:
        after = {k: c.cache_info() for k, c in caches.items()}
        out["layers"] = tracer.layer_metrics(tr, before, after, len(durations))
        out["spans"] = len(tr.spans)
        tr.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv.gz")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
