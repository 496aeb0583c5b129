"""Draw the input pools and record their reference results.

Run once from the repository root, against the commit whose results become
the references:

    python3 perfbench/record.py [--recost] [certify analyze oracle encode]

For each shift workload it draws presentations alphabet by alphabet from a
fixed seed, runs the workload's operation on each with cold caches, and keeps
a draw only if its presentation is new and none of the ``lru_cache`` keys it
touched was touched by a kept draw, so that no two operations of a run share
cache entries.  Each kept entry stores its cold run time (used to stratify
schedules and size runs) and its reference: the digest of every value the CLI
report would print, or the exception it raised, in which case it has no
reference.  For encode it stores the encoders' references and their time for
a 1000-symbol message.  Costs are times at the speed probe's reference speed
(``speed.py``).  This overwrites ``data/<workload>.json``.  With
``--recost`` it keeps the stored entries and references and measures only
the costs again.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import ops  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from groupshift import shifts, words  # noqa: E402

CACHED = ("_window_module", "supported_words", "torsion_window_projection")
REPEATS = 3


class KeyLog:
    """Records the arguments of every call to the shifts module's caches."""

    def __init__(self):
        self.keys: set = set()
        self.originals = {name: getattr(shifts, name) for name in CACHED}
        for name, original in self.originals.items():
            tracer.rebind("groupshift", original, self._logger(name, original))

    def _logger(self, name, original):
        def logged(*args, **kwargs):
            self.keys.add((name, args, tuple(sorted(kwargs.items()))))
            return original(*args, **kwargs)
        return logged

    def cold(self) -> None:
        self.keys = set()
        for original in self.originals.values():
            original.cache_clear()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((HERE.parent / "src").rglob("*.py")))


def run_entry(workload: str, alphabet: str, gens):
    shift = ops.build_shift(alphabet, gens)
    if workload == "certify":
        return ops.certify_values(ops.run_certify(shift))
    if workload == "analyze":
        return ops.analyze_values(ops.run_analyze(shift))
    hi = corpus.oracle_hi(shift.alphabet.orders)
    return ops.oracle_values(ops.run_oracle(shift, hi), hi)


def cold_run(log: KeyLog, workload: str, alphabet: str, gens):
    """(report values and verdict, or the exception raised; cold cost)."""
    log.cold()
    probe = speed.SpeedProbe()
    try:
        out = probe.run(lambda: run_entry(workload, alphabet, gens))
    except Exception as exc:  # recorded as the entry's outcome
        out = exc
    return out, speed.scaled_time(probe.samples)[1]


def measure(log: KeyLog, workload: str, alphabet: str, gens) -> dict:
    """Reference, touched cache keys and cold cost of one draw."""
    out, cost = cold_run(log, workload, alphabet, gens)
    if isinstance(out, Exception):
        ref = {"status": "raises", "error": f"{type(out).__name__}: {out}"}
    else:
        values, verdict = out
        ref = {"status": "ok", "digest": ops.digest(values), "verdict": verdict}
    return {"key": corpus.shift_key(alphabet, gens), "alphabet": alphabet,
            "gens": [[s, [list(x) for x in syms]] for s, syms in gens],
            "cost_s": round(cost, 4), "ref": ref}


def settle_cost(log: KeyLog, workload: str, entry: dict) -> None:
    """Replace a kept entry's cost by the median of REPEATS cold runs, so a
    slow spell of the machine does not put it in the wrong cost bin.  An
    entry that raises keeps its single run."""
    if entry["ref"]["status"] != "ok":
        return
    costs = [entry["cost_s"]]
    for _ in range(REPEATS - 1):
        costs.append(cold_run(log, workload, entry["alphabet"], entry["gens"])[1])
    entry["cost_s"] = round(statistics.median(costs), 4)


def recost_shifts(workload: str, log: KeyLog) -> list[dict]:
    """The stored entries, each ok entry with the median of REPEATS new cold
    costs; entries that raise keep their stored cost."""
    entries = corpus.load_pool(workload)["entries"]
    for entry in entries:
        if entry["ref"]["status"] == "ok":
            entry["cost_s"] = cold_run(log, workload, entry["alphabet"], entry["gens"])[1]
            settle_cost(log, workload, entry)
            print(f"{workload} {entry['key']} {entry['cost_s']}s", flush=True)
    return entries


def record_shifts(workload: str, log: KeyLog) -> list[dict]:
    shape = corpus.SHAPES[workload]
    used_keys: set = set()
    seen: set = set()
    entries = []

    def keep(entry) -> bool:
        if entry["key"] in seen or log.keys & used_keys:
            return False
        seen.add(entry["key"])
        used_keys.update(log.keys)
        settle_cost(log, workload, entry)
        entries.append(entry)
        return True

    if workload == "certify":
        for alphabet, gens in corpus.ROADMAP_CASES:
            entry = measure(log, workload, alphabet, gens)
            entry["pinned"] = True
            if not keep(entry):
                raise SystemExit(f"pinned case overlaps: {entry['key']}")
    for alphabet in shape.alphabets:
        rng = random.Random(f"pool:{workload}:{alphabet}")
        kept = 0
        for _ in range(shape.attempts):
            if kept == shape.per_alphabet:
                break
            _, gens = corpus.draw_shift(rng, alphabet, shape)
            if corpus.shift_key(alphabet, gens) in seen:
                continue
            entry = measure(log, workload, alphabet, gens)
            if keep(entry):
                kept += 1
                print(f"{workload} {entry['key']} {entry['cost_s']}s "
                      f"{entry['ref'].get('verdict', entry['ref'].get('error'))}",
                      flush=True)
        print(f"{workload} {alphabet}: kept {kept}", flush=True)
    return entries


def record_encoders(recost: bool = False) -> list[dict]:
    """Encoder references, and each encoder's median time for a
    1000-symbol message (the cost model that sizes encode runs).  With
    `recost`, the stored references are kept."""
    entries = []
    stored = corpus.load_pool("encode")["entries"] if recost else None
    rng = random.Random("record:encode")
    for k, (alphabet, gens) in enumerate(corpus.ENCODER_SHIFTS):
        result = ops.run_certify(ops.build_shift(alphabet, gens))
        values, verdict = ops.certify_values(result)
        enc = result[1].product_encoder
        if enc is None:
            raise SystemExit(f"no encoder for {alphabet}")
        times = []
        probe = speed.SpeedProbe()
        for _ in range(REPEATS):
            msg = words.Word.make(enc.source, 0, [
                tuple(rng.randrange(n) for n in enc.source.orders) for _ in range(1000)])
            probe.run(lambda: ops.run_encode(enc, msg))
            times.append(speed.scaled_time(probe.samples)[1])
        ref = {"status": "ok", "digest": ops.digest(values), "verdict": verdict}
        entries.append({"key": corpus.shift_key(alphabet, gens), "alphabet": alphabet,
                        "gens": [[s, [list(x) for x in syms]] for s, syms in gens],
                        "cost_1000_s": round(statistics.median(times), 4),
                        "ref": stored[k]["ref"] if recost else ref})
    return entries


def main(argv: list[str]) -> int:
    log = KeyLog()
    recost = "--recost" in argv
    for workload in [w for w in argv if w != "--recost"] or list(corpus.WORKLOADS):
        if workload == "encode":
            entries = record_encoders(recost)
        elif recost:
            entries = recost_shifts(workload, log)
        else:
            entries = record_shifts(workload, log)
        head = json.dumps({"workload": workload, "python": platform.python_version(),
                           "src_lines": src_lines()})
        body = ",\n".join(json.dumps(e) for e in entries)
        path = corpus.DATA_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(head[:-1] + ', "entries": [\n' + body + "\n]}\n")
        print(f"wrote {path} with {len(entries)} entries", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
