"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import oracles  # noqa: E402
import ops  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from run import tail_percentile  # noqa: E402
from groupshift import encoders, groups, shifts, words  # noqa: E402


def test_tail_percentile_leaves_ten_samples_above():
    for n, q in ((1000, 99), (200, 95), (100, 90), (40, 75), (20, 50)):
        xs = [float(i) for i in range(n)]
        random.Random(n).shuffle(xs)
        value, got = tail_percentile(xs)
        assert got == q
        assert sum(x > value for x in xs) >= 10
        # the next whole percentile up would leave fewer than ten
        if q < 99:
            rank = -(-(q + 1) * n // 100)
            assert n - rank < 10


def test_tail_percentile_never_below_the_median():
    xs = [float(i) for i in range(15)]
    assert tail_percentile(xs) == (7.0, 50)
    assert tail_percentile([3.0]) == (3.0, 50)


def test_self_time_subtracts_nested_children():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    inner = tr.wrap("words", "inner", lambda: None)

    def middle():
        inner()
        inner()
    middle = tr.wrap("shifts", "middle", middle)

    def outer():
        middle()
        inner()
    outer = tr.wrap("encoders", "outer", outer)

    outer()
    # clock reads: outer 0..9, middle 1..6, inner 2..3, 4..5 and 7..8
    assert [s[2:5] for s in tr.spans] == [
        [0.0, 9.0, -1], [1.0, 6.0, 0], [2.0, 3.0, 1], [4.0, 5.0, 1], [7.0, 8.0, 0]]
    selfs = tracer.self_times(tr.spans)
    assert selfs == {"encoders": 9 - 5 - 1, "shifts": 5 - 2, "words": 3}


def test_span_closes_when_the_call_raises():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("x")
    wrapped = tr.wrap("residues", "boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tr.stack == [] and tr.spans[0][3] >= tr.spans[0][2]


def test_scaled_time_scales_each_stretch_and_leaves_probes_out():
    # probes as (start, end, cost): the first stretch (1.0 to 3.0) lies
    # between two probes at the reference cost, the second (3.5 to 4.5)
    # between one at the reference cost and one at three times it
    samples = [(0.0, 1.0, 0.5), (3.0, 3.5, 0.5), (4.5, 5.0, 1.5)]
    assert speed.scaled_time(samples, ref=0.5) == (3.0, 2.0 + 1.0 * 0.5 / 1.0)
    assert speed.scaled_time(samples[:1], ref=0.5) == (0.0, 0.0)


def test_probe_runs_before_during_and_after_the_call():
    probe = speed.SpeedProbe(interval=0.01)

    def busy():
        started = time.perf_counter()
        while time.perf_counter() - started < 0.08:
            pass
        return 7
    assert probe.run(busy) == 7
    assert len(probe.samples) >= 4
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    raw, _ = speed.scaled_time(probe.samples)
    probing = sum(end - start for start, end, _ in probe.samples[1:-1])
    assert abs(raw + probing - 0.08) < 0.01


def _random_encoder(rng):
    alphabet = groups.FiniteAbelianGroup.parse(rng.choice(["Z4", "Z2 x Z3", "Z2 x Z4"]))
    source = groups.FiniteAbelianGroup.parse(rng.choice(["Z2", "Z3 x Z2", "Z4"]))
    taps = []
    for _ in range(source.rank):
        syms = [tuple(rng.randrange(n) for n in alphabet.orders)
                for _ in range(rng.randint(1, 4))]
        taps.append(words.Word.make(alphabet, rng.randint(-2, 2), syms))
    return encoders.Encoder(alphabet, source, tuple(taps), (0,) * source.rank,
                            (2,) * source.rank)


def test_naive_encode_matches_encode():
    rng = random.Random(7)
    for _ in range(200):
        enc = _random_encoder(rng)
        start = rng.randint(-3, 3)
        syms = [tuple(rng.randrange(n) for n in enc.source.orders)
                for _ in range(rng.randint(0, 12))]
        msg = words.Word.make(enc.source, start, syms)
        word = encoders.encode(enc, msg)
        taps = [(t.start, t.symbols) for t in enc.taps]
        assert oracles.naive_encode(enc.alphabet.orders, taps, start, syms) == \
            (word.start, word.symbols)


def test_window_code_matches_library_enumeration():
    rng = random.Random(11)
    shape = corpus.SHAPES["oracle"]
    for alphabet in ("Z4", "Z2 x Z2", "Z6", "Z2 x Z4"):
        for _ in range(5):
            _, gens = corpus.draw_shift(rng, alphabet, shape)
            shift = ops.build_shift(alphabet, gens)
            got = oracles.window_code(shift.alphabet.orders, gens, -1, 1)
            assert got == set(shifts.enumerate_window_code(shift, -1, 1))


def _corpus_bytes(workload, seed):
    if workload == "encode":
        return json.dumps(corpus.message_plan(seed, [(2,), (3, 2)], 40)).encode()
    entries = corpus.load_pool(workload)["entries"]
    return json.dumps(corpus.schedule(entries, seed, workload)).encode()


def test_equal_seeds_give_byte_identical_corpora():
    for workload in corpus.WORKLOADS:
        assert _corpus_bytes(workload, 5) == _corpus_bytes(workload, 5)
        assert _corpus_bytes(workload, 5) != _corpus_bytes(workload, 6)


def test_schedule_keeps_every_entry_once_and_pins_first():
    entries = corpus.load_pool("certify")["entries"]
    order = corpus.schedule(entries, 3, "certify")
    assert sorted(e["key"] for e in order) == sorted(e["key"] for e in entries)
    assert [e["key"] for e in order[:2]] == \
        [corpus.shift_key(a, g) for a, g in corpus.ROADMAP_CASES]


def test_run_length_counts_repeated_operations_once_per_pass():
    for workload in ("certify", "encode"):
        count = corpus.run_length(workload, 30)
        costs = corpus.expected_costs(workload, 0)
        again = corpus.repeated(workload, 0, count)
        assert all(not costs[i][1] and costs[i][0] < corpus.REPEAT_BELOW_S for i in again)
        assert set(range(count)) - set(again) == {
            i for i in range(count)
            if costs[i][1] or costs[i][0] >= corpus.REPEAT_BELOW_S}
        work = [c * (corpus.PASSES if i in again else 1)
                for i, (c, _) in enumerate(costs[:count])]
        assert sum(work) >= 30 > sum(work[:-1])
