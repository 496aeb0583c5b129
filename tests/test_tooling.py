"""The benchmark's tracer (perfbench/tracer.py) wraps library entry points by
attribute name, so a renamed or removed entry point must fail here and not
only under ``perfbench/run.py --trace 1``.  The package's runtime is the
standard library alone, which a guard here keeps."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

from groupshift import control, encoders, residues, shifts, words
from groupshift.control import (_divisors, _steering_condition, analyze_controllability,
                                order_controllability_index)
from groupshift.encoders import (Horizons, check_injectivity, conjugacy_certificate, encode,
                                 lift_height, solve_finite_preimage)
from groupshift.groups import FiniteAbelianGroup
from groupshift.residues import HowellForm
from groupshift.shifts import GroupShift, finite_type_memory, primary_shift, torsion_presentation
from groupshift.specfmt import parse_message, parse_spec
from groupshift.words import Word

from conftest import full_shift, impulse, random_shift

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import tracer, ops
from pathlib import Path
from groupshift.specfmt import parse_spec
t = tracer.Tracer()
tracer.install(t)
full_z4 = ops.build_shift("Z4", [(0, [(1,)])])
# the order search finds n_o, so the socle line holds by construction and
# the analyze makes no counted reduction
ops.run_analyze(full_z4)
assert t.counts["residues.howell_calls"] == 0, t.counts
assert t.counts["control.steering_conditions"] > 0, t.counts
# with no n_o, the socle verdict and the witness are Howell reductions
t.counts.clear()
ops.run_analyze(parse_spec(Path({golden!r}, "order-witness.spec").read_text()).shift)
assert t.counts["residues.howell_calls"] > 0, t.counts
assert t.counts["residues.solver_builds"] == 0, t.counts
t.counts.clear()
_, cert = ops.run_certify(full_z4)
assert t.counts["residues.howell_calls"] > 0, t.counts
enc = cert.product_encoder
t.counts.clear()
ops.run_encode(enc, ops.words.Word.make(enc.source, 0, [(1,), (3,), (2,)]))
assert t.counts["encoders.encode_calls"] == 1, t.counts
"""


#: Generator selection reads its picks off Howell forms; listing the
#: candidate span instead took 49,153 candidates for this Z8 x Z4 case.
SELECTION_SCRIPT = """
import tracer, ops
t = tracer.Tracer()
tracer.install(t)
z8_z4 = ops.build_shift("Z8 x Z4", [(0, [(1, 2), (3, 1), (2, 2)]),
                                    (0, [(0, 1), (4, 3)])])
_, cert = ops.run_certify(z8_z4)
assert cert.complete
assert 0 < t.counts["encoders.candidates_enumerated"] < 100, t.counts
"""


#: A constrained projection is one packed elimination, whose kept rows are
#: canonical, and which the tracer does not count; a solver build is one
#: Howell reduction, one call to the counted module-level ``howell_form``,
#: and a private helper that bypassed it would read 0 here.
REDUCTION_SCRIPT = """
import tracer, ops
from groupshift import residues
t = tracer.Tracer()
tracer.install(t)
z8_z4 = ops.build_shift("Z8 x Z4", [(0, [(1, 2), (3, 1), (2, 2)]),
                                    (0, [(0, 1), (4, 3)])])
module = z8_z4.window(-2, 3)
t.counts.clear()
module.constrained_projection(0, 3, zero_positions=[-2, -1], kill_scale=2)
assert t.counts["residues.howell_calls"] == 0, t.counts
t.counts.clear()
rows = residues.unpack_rows(module.packed, module.modulus, module.rank_width)
solver = residues.row_solver(rows, module.modulus)
assert solver.express(rows[0]) is not None
assert t.counts["residues.solver_builds"] == 1, t.counts
assert t.counts["residues.howell_calls"] == 1, t.counts
"""


#: A failing order search reads its witness off the elimination that decided
#: the failing scale: one small Howell form over the past columns, and no
#: counted reduction anywhere else in the search.
WITNESS_SCRIPT = """
import tracer
from pathlib import Path
from groupshift import control
from groupshift.specfmt import parse_spec
t = tracer.Tracer()
tracer.install(t)
for name in ("order-witness", "scale-witness", "mixed-witness"):
    shift = parse_spec(Path({golden!r}, name + ".spec").read_text()).shift
    t.counts.clear()
    search = control.order_controllability_index(shift, 16)
    assert search.index is None and search.witness is not None, name
    assert t.counts["residues.howell_calls"] == 1, (name, t.counts)
"""


#: The traced reductions of `certify` on the two ROADMAP cases: a packed path
#: that bypassed one of the counted entry points would read a different count
#: here.  The socle line, the heights, the order bounds and the window
#: lines hold by construction, with no reduction of their own; the
#: initial-value rank is read off the certified p-torsion words that the
#: generator picks read, on Z8 x Z4 one form wider than the support cap at
#: the base level; a tap is lifted once, at pad n_o + 1; a tap's
#: membership reads the cached certified words, with no window form of its
#: own; the certified words on [0, t], t <= H, of the scaled check are read
#: off one form on [0, H] by `zero_prefix`, and lifts share one form per
#: width at every offset.  The membership tests are those of generator picks
#: read off canonical rows, at most one per head row of a level's form, the
#: heads of the steering verdicts on their boundary windows, and one per row
#: of the certified words on [0, H] in the noncatastrophicity check.  The
#: last count is every kernel elimination, counted or not by the tracer.
COUNT_SCRIPT = """
import corpus, ops, tracer
from groupshift import residues
t = tracer.Tracer()
tracer.install(t)
calls = []
eliminate = residues._eliminate
tracer.rebind("groupshift", eliminate, lambda *args: calls.append(args) or eliminate(*args))
want = {"Z8 x Z4": [18, 954, 25, 4, 3, 45], "Z9 x Z3": [10, 446, 30, 2, 1, 36]}
keys = ("howell_calls", "howell_cells", "contains_calls", "solver_builds", "express_calls")
for alphabet, gens in corpus.ROADMAP_CASES:
    t.counts.clear()
    calls.clear()
    ops.run_certify(ops.build_shift(alphabet, gens))
    got = [t.counts["residues." + k] for k in keys] + [len(calls)]
    assert got == want[alphabet], (alphabet, got)
"""


#: No benchmark workload checks `analyze` reports, so every entry of its pool
#: is compared here with the digest recorded for it.
ANALYZE_POOL_SCRIPT = """
import json, ops
from pathlib import Path
entries = json.loads(Path({pool!r}).read_text())["entries"]
assert len(entries) == 96, len(entries)
for e in entries:
    shift = ops.build_shift(e["alphabet"], e["gens"])
    values, verdict = ops.analyze_values(ops.run_analyze(shift))
    assert ops.digest(values) == e["ref"]["digest"], (e["key"], verdict)
"""


#: The benchmark worker checks `certify` digests; every entry of its pool with
#: a recorded report is compared here as well, which pins the printed taps.
CERTIFY_POOL_SCRIPT = """
import json, ops
from pathlib import Path
entries = [e for e in json.loads(Path({pool!r}).read_text())["entries"]
           if e["ref"]["status"] == "ok"]
assert len(entries) == 159, len(entries)
for e in entries:
    shift = ops.build_shift(e["alphabet"], e["gens"])
    values, verdict = ops.certify_values(ops.run_certify(shift))
    assert ops.digest(values) == e["ref"]["digest"], (e["key"], verdict)
"""


def _run_with_perfbench(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_on_every_hook_point():
    _run_with_perfbench(SCRIPT.format(golden=str(ROOT / "tests" / "golden")))


def test_generator_selection_enumerates_few_candidates():
    _run_with_perfbench(SELECTION_SCRIPT)


def test_one_counted_reduction_per_projection_and_solver():
    _run_with_perfbench(REDUCTION_SCRIPT)


def test_failing_order_search_reads_its_witness_off_one_form():
    _run_with_perfbench(WITNESS_SCRIPT.format(golden=str(ROOT / "tests" / "golden")))


def test_certify_reduction_counts_on_the_roadmap_cases():
    _run_with_perfbench(COUNT_SCRIPT)


def test_analyze_reports_match_the_pool_references():
    _run_with_perfbench(ANALYZE_POOL_SCRIPT.format(
        pool=str(ROOT / "perfbench" / "data" / "analyze.json")))


def test_certify_reports_match_the_pool_references():
    _run_with_perfbench(CERTIFY_POOL_SCRIPT.format(
        pool=str(ROOT / "perfbench" / "data" / "certify.json")))


def _record_steering_eliminations(monkeypatch) -> list:
    """The argument tuples of the `projection_heads` calls made from `shifts`
    other than the near-end steps of `_near_end`: the boundary-window
    eliminations of the steering verdicts and of the finite-type scan
    (`_boundary_heads`), and the constrained projections of window modules
    (`WindowModule.constrained_projection`)."""
    calls, near_end = [], shifts._near_end.__code__

    def record(*args):
        if sys._getframe(1).f_code is not near_end:
            calls.append(args)
        return residues.projection_heads(*args)
    monkeypatch.setattr(shifts, "projection_heads", record)
    return calls


def test_failing_order_search_makes_few_steering_eliminations(monkeypatch):
    # the tracer does not see projection_heads, so count its calls directly:
    # the search probes the candidates 0, 1, 2, 4, ..., cap only, a
    # failing candidate stops at the scale that failed last, and the witness
    # reuses the cap candidate's eliminations, adding one per scale that
    # candidate did not reach
    calls = _record_steering_eliminations(monkeypatch)
    cap = 16
    for name in ("order-witness", "scale-witness", "mixed-witness"):
        text = (ROOT / "tests" / "golden" / f"{name}.spec").read_text()
        shift = parse_spec(text).shift
        calls.clear()
        search = order_controllability_index(shift, cap)
        assert search.index is None and search.witness is not None, name
        assert len(calls) <= cap.bit_length() + 1 + len(_divisors(shift.alphabet.exponent)), \
            name


def test_no_steering_elimination_passes_a_vacuous_condition(monkeypatch):
    # d * v == 0 holds for every v when d is 0 mod m, so the order search's
    # scale exp(H) is the plain condition and is eliminated without condition
    # columns; the failing searches of the witness specs may stop before that
    # scale, the succeeding ones of the other specs reach it at their index
    calls = _record_steering_eliminations(monkeypatch)
    for name in ("order-witness", "scale-witness", "mixed-witness", "delay-rep", "z8-z4",
                 "z9-z3"):
        text = (ROOT / "tests" / "golden" / f"{name}.spec").read_text()
        shift = parse_spec(text).shift
        calls.clear()
        order_controllability_index(shift, 16)
        assert calls, name
        assert all(s % m for _, m, conditions, *_ in calls for _, _, s in conditions), name


def test_steering_verdicts_eliminate_boundary_windows_only(monkeypatch):
    # a verdict eliminates the boundary window [2-s, n+s-1], whose width does
    # not grow with the past window L (`default_past_horizon`): at most
    # (n + 2s - 2) * rank columns;
    # a failing search's witness reuses the cap candidate's eliminations
    calls = _record_steering_eliminations(monkeypatch)

    def width_bound(n):
        bound = (n + 2 * shift.span - 2) * shift.alphabet.rank
        # conditions are (first column, count, scale) runs, zeros (first, count)
        return all(sum(n for _, n, _ in conditions) + sum(n for _, n in zeros) + hi - lo
                   <= bound for _, _, conditions, zeros, lo, hi in calls)

    for name in ("order-witness", "scale-witness", "mixed-witness", "delay-rep", "z8-z4",
                 "z9-z3"):
        text = (ROOT / "tests" / "golden" / f"{name}.spec").read_text()
        shift = parse_spec(text).shift
        scales = _divisors(shift.alphabet.exponent)
        for n in range(0, 17, 4):
            calls.clear()
            _steering_condition(shift, n, list(scales))
            assert calls and width_bound(n), (name, n)
        calls.clear()
        # a fresh shift, whose table holds none of the verdicts above
        search = order_controllability_index(parse_spec(text).shift, 16)
        failing = name in ("order-witness", "scale-witness", "mixed-witness")
        assert (search.witness is not None) == failing, name
        assert calls and width_bound(16), name


def test_finite_type_scan_eliminates_boundary_windows_only(monkeypatch):
    # each splice verdict is one elimination on the boundary window around
    # the block [0, N], whose condition run holds (N + 1) * rank columns: at
    # most (N + 2s - 1) * rank columns in all, and no window module is built
    calls = _record_steering_eliminations(monkeypatch)

    def no_window(*args):
        raise AssertionError("finite_type_memory built a window module")
    monkeypatch.setattr(GroupShift, "window", no_window)
    for path in sorted((ROOT / "tests" / "golden").glob("*.spec")):
        shift = parse_spec(path.read_text()).shift
        calls.clear()
        finite_type_memory(shift, cap=8)
        assert calls, path.name
        for _, _, conditions, zeros, lo, hi in calls:
            (_, block, _), = conditions
            assert block + sum(n for _, n in zeros) + hi - lo <= \
                block + 2 * (shift.span - 1) * shift.alphabet.rank, path.name


def test_finite_type_makes_one_elimination_per_block(monkeypatch):
    # each memory candidate N is decided at the one block [1, N+1], not at
    # every reach: the delay shift of memory 5 makes 5 eliminations, where a
    # scan over the reaches 1..min(H+N, R) made 20
    calls = _record_steering_eliminations(monkeypatch)
    shift = parse_spec("group: Z2 x Z2\n"
                       "gen @0: (1,0) (0,0) (0,0) (0,0) (0,0) (0,0) (0,1)\n").shift
    assert finite_type_memory(shift, 8).memory == 5
    assert len(calls) <= 5, len(calls)


def test_noncatastrophicity_eliminates_boundary_windows_only(monkeypatch):
    # the backward direction decides the certified words on [0, t] on the
    # boundary window [2-s, t+s] of the taps, s their span, whose width does
    # not grow with a message slack: at most (t + 2s - 1) * rank columns
    calls = []
    monkeypatch.setattr(encoders, "projection_heads",
                        lambda *args: calls.append(args) or residues.projection_heads(*args))
    checked = 0
    for path in sorted((ROOT / "tests" / "golden").glob("*.spec")):
        shift = parse_spec(path.read_text()).shift
        horizons = Horizons.derive(shift)
        audits = [(pc.encoder, pc.shift) for pc in conjugacy_certificate(shift).primaries
                  if pc.encoder]
        try:
            audits.append((encoders.presentation_encoder(shift), shift))
        except ValueError:  # a generator of composite order is no tap
            pass
        for enc, target in audits:
            calls.clear()
            encoders.check_noncatastrophic(enc, target, horizons.window_horizon)
            r = enc.alphabet.rank
            for _, _, conditions, zeros, lo, hi in calls:
                t = (hi - lo) // r - 1  # the kept block is [0, t]
                assert not conditions and sum(n for _, n in zeros) + hi - lo <= \
                    (t + 2 * enc.memory - 1) * r, path.name
            checked += len(calls)
    assert checked


def test_supported_words_build_no_window_module():
    # certified words are one elimination on the boundary window of the
    # near-end states, not a projection of a margin-padded window module
    rng = random.Random(31)
    shifts.supported_words.cache_clear()
    for _ in range(10):
        shift = random_shift(rng)
        before = shifts._window_module.cache_info().misses
        for scale in (None, shift.alphabet.primes()[0]):
            shifts.supported_words(shift, 4, torsion_scale=scale)
            assert shifts._window_module.cache_info().misses == before, (shift, scale)


def test_window_families_build_one_certified_form():
    # each window family [0, t], t <= H, is read off one certified-words
    # form by zero_prefix: the scaled check builds the form on [0, H] for G
    # and for p*G, and the noncatastrophicity check builds one form, as wide
    # as H+1 and the longest tap, for the windows and the taps' membership
    # (one elimination per window made 2(H+1) and H+1 of them, plus one per
    # further tap length); z8-z4 and z9-z3 add passing scaled checks to
    # full-z4's
    def misses():
        return shifts.supported_words.cache_info().misses

    scaled = noncat = 0
    for name, primes in (("full-z4", (2,)), ("delay-rep", (2,)), ("z6", (2, 3)),
                         ("mixed-witness", (3,)), ("z8-z4", (2,)), ("z9-z3", (3,))):
        shift = parse_spec((ROOT / "tests" / "golden" / f"{name}.spec").read_text()).shift
        horizons = Horizons.derive(shift)
        h = horizons.window_horizon
        for p in primes:
            part = primary_shift(shift, p)
            if part.exponent > p:
                shifts.supported_words.cache_clear()
                assert encoders.scaled_finite_words_check(part, p, 1, horizons)[0], name
                assert misses() == 2, (name, p, misses())
                scaled += 1
            enc = encoders.build_encoder(encoders.canonical_generators(part, p, horizons))
            shifts.supported_words.cache_clear()
            assert encoders.check_noncatastrophic(enc, part, h).ok, name
            assert misses() == 1, (name, p, misses())
            noncat += 1
    assert (scaled, noncat) == (3, 7)


def test_member_builds_no_window_module():
    # membership is a lookup in the exact certified words of the word's
    # support, not a margin-padded window module around it
    rng = random.Random(34)
    for _ in range(10):
        shift = random_shift(rng)
        before = shifts._window_module.cache_info().misses
        ones = impulse(shift.alphabet, [1] * shift.alphabet.rank)
        for w in (shift.generators[0].shifted(2), ones):
            shifts.member(shift, w)
        assert shifts._window_module.cache_info().misses == before, shift


def test_certify_reads_torsion_windows_and_initial_values_off_the_engine(monkeypatch):
    # the initial-value rank is read off the certified p-torsion words that
    # the generator picks read, so certify builds no torsion near-end state:
    # every state it asks `_near_end` for is a cut state or a
    # whole-placement one, whatever the exponent; no padded torsion
    # projection, constrained projection or window module is made, and the
    # socle line holds by construction, so certify reads no torsion
    # presentation
    made, kinds = [], []
    for owner, name in ((shifts, "torsion_window_projection"),
                        (shifts.WindowModule, "constrained_projection"),
                        (shifts, "torsion_presentation"),
                        (control, "torsion_presentation")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, original=original, **kw:
                            made.append(name) or original(*args, **kw))
    near_end = shifts._near_end
    monkeypatch.setattr(shifts, "_near_end", lambda shift, mirror, kind=1:
                        kinds.append(kind) or near_end(shift, mirror, kind))
    before = shifts._window_module.cache_info().misses
    for name in ("full-z4", "delay-rep", "z6", "z8-z4", "z9-z3"):
        shift = parse_spec((ROOT / "tests" / "golden" / f"{name}.spec").read_text()).shift
        assert conjugacy_certificate(shift).complete, name
    assert not made, made
    assert kinds and set(kinds) <= {1, "whole"}, set(kinds)
    assert shifts._window_module.cache_info().misses == before


def test_no_height_is_lifted_to_the_exponent(monkeypatch):
    # p^e kills every certified word of a shift of exponent p^e, so no word
    # is lifted to height e: every lift stays below it, where p^h stays
    # below exp(H)
    asked = []
    lift = encoders.lift_height

    def recorded(shift, x, p, h, pad):
        asked.append((h, shift.exponent_exponent(p)))
        return lift(shift, x, p, h, pad)
    monkeypatch.setattr(encoders, "lift_height", recorded)
    for name in ("full-z4", "z8-z4", "z9-z3"):
        shift = parse_spec((ROOT / "tests" / "golden" / f"{name}.spec").read_text()).shift
        assert conjugacy_certificate(shift).complete, name
    assert asked and all(h < e for h, e in asked), asked


def test_analyze_builds_each_near_end_state_once(monkeypatch):
    # the plain search, the order search and the splice scan of one analyze
    # read the near-end states off one table on the shift, and its socle
    # lines the torsion states off one on each primary component (the shift
    # itself over a p-group alphabet), so every `projection_heads` call that
    # `_near_end` makes is one step, which adds a state to one of them, or
    # the start state T_d(s-1) of a cut sequence, one per sequence on a shift
    # of span s > 1
    built, kinds = [], set()
    near_end = shifts._near_end.__code__

    def record(*args):
        if sys._getframe(1).f_code is near_end:
            built.append(args)
        return residues.projection_heads(*args)
    monkeypatch.setattr(shifts, "projection_heads", record)
    for path in sorted((ROOT / "tests" / "golden").glob("*.spec")):
        shift = parse_spec(path.read_text()).shift
        built.clear()
        horizons = Horizons.derive(shift)
        analyze_controllability(shift, cap=horizons.n_cap, horizon=horizons.window_horizon)
        finite_type_memory(shift, cap=8)
        parts = [primary_shift(shift, p) for p in shift.alphabet.primes()]
        for p, part in zip(shift.alphabet.primes(), parts):
            torsion_presentation(part, p, horizons)
        # every state sequence, of every kind, on the shift and its components
        owners = {id(g): g for g in (shift, *parts)}.values()
        tables = [g.boundary_table.get("states", {}) for g in owners]
        states = sum(len(states) - 1 for table in tables for _, states in table.values())
        starts = sum(g.span > 1 and kind != "whole" and not isinstance(kind, tuple)
                     for g in owners for _, kind in g.boundary_table.get("states", {}))
        assert len(built) == states + starts, path.name
        assert states or shift.span <= 1, path.name
        kinds.update(kind for table in tables for _, kind in table)
    assert kinds >= {1, 2, 3}, kinds  # cut states, and torsion states for p = 2, 3


def test_certify_packs_each_word_once(monkeypatch):
    # a Word packs its support once and places copies of that row by shifts:
    # every `pack_rows` call made from words.py packs a Word object not packed
    # before (equal words built apart pack apart)
    packed = []

    def record(rows, m, ncols):
        packed.append(sys._getframe(1).f_locals["self"])
        return residues.pack_rows(rows, m, ncols)
    monkeypatch.setattr(words, "pack_rows", record)
    shift = parse_spec((ROOT / "tests" / "golden" / "z8-z4.spec").read_text()).shift
    assert conjugacy_certificate(shift, Horizons.derive(shift)).complete
    assert packed
    assert len({id(w) for w in packed}) == len(packed)  # `packed` keeps each alive


def test_steering_verdicts_reverse_no_state_after_the_first(monkeypatch):
    # the tail near-end states are stored in the orientation the boundary
    # window reads them and placed there by lane shifts, so no boundary
    # elimination after a failing search's first packs or unpacks rows
    verdicts, seen = [], []  # seen: the verdict number of each call inside one
    boundary = control._boundary_heads

    def counted(*args):
        verdicts.append(True)
        try:
            return boundary(*args)
        finally:
            verdicts[-1] = False
    monkeypatch.setattr(control, "_boundary_heads", counted)
    for module in (residues, words, control):
        for name in ("pack_rows", "unpack_rows"):
            if hasattr(module, name):
                original = getattr(residues, name)
                monkeypatch.setattr(module, name, lambda *args, original=original: (
                    verdicts and verdicts[-1] and seen.append(len(verdicts)))
                    or original(*args))
    for name in ("order-witness", "scale-witness"):
        shift = parse_spec((ROOT / "tests" / "golden" / f"{name}.spec").read_text()).shift
        verdicts.clear()
        seen.clear()
        search = order_controllability_index(shift, 16)
        assert search.index is None and len(verdicts) > 1, name
        assert set(seen) <= {1}, (name, seen)


def test_constrained_projection_is_one_packed_elimination(monkeypatch):
    # the tuple rows of a window never reach the kernel: the conditions are
    # moved on packed rows by projection_heads, whose kept rows are the
    # canonical projection, with no second elimination
    calls = {"projection_heads": 0, "howell_form": 0}
    for name in calls:
        original = getattr(shifts, name)
        monkeypatch.setattr(shifts, name, lambda *args, name=name, original=original:
                            calls.__setitem__(name, calls[name] + 1) or original(*args))
    z8_z4 = parse_spec(
        "group: Z8 x Z4\ngen @0: (1,2) (3,1) (2,2)\ngen @0: (0,1) (4,3)\n").shift
    module = z8_z4.window(-2, 3)
    module.constrained_projection(0, 3, zero_positions=[-2, -1], kill_scale=2)
    assert calls == {"projection_heads": 1, "howell_form": 0}


def test_encode_is_packed_not_a_per_term_sum(monkeypatch):
    # encode is one int product per tap: the placed (c, tap, t) term sum
    # through Word.combine that it replaced must not come back; the delay
    # representation has byte lanes, which are reduced by one translation per
    # coordinate and never unpacked lane by lane
    golden = ROOT / "tests" / "golden"
    shift = parse_spec((golden / "delay-rep.spec").read_text()).shift
    encoder = conjugacy_certificate(shift, Horizons.derive(shift)).product_encoder
    message = parse_message((golden / "delay-rep-long.msg").read_text(), encoder.source)

    def refuse(*args):
        raise AssertionError("encode called Word.combine or unpacked its lanes")
    monkeypatch.setattr(Word, "combine", refuse)
    monkeypatch.setattr(encoders, "_bytes_to_lanes", refuse)
    for window, name in ((None, "encode-long"), ((100, 140), "encode-long-window")):
        report = (golden / f"delay-rep.{name}.out").read_text().splitlines()
        assert f"word: {encode(encoder, message, window).format()}" in report, name



def test_encode_packs_each_tap_once_per_encoder(monkeypatch):
    # the taps are packed once, into the encoder's plan; later messages and
    # windows pack only their own columns
    golden = ROOT / "tests" / "golden"
    shift = parse_spec((golden / "z8-z4.spec").read_text()).shift
    encoder = conjugacy_certificate(shift, Horizons.derive(shift)).product_encoder
    packed = []
    monkeypatch.setattr(encoders, "_lanes_to_bytes", lambda vals, nbytes:
                        packed.append(vals) or residues._lanes_to_bytes(vals, nbytes))
    rows = [tuple((i * 5 + k) % n for k, n in enumerate(encoder.source.orders))
            for i in range(1, 40)]
    for message, window in ((rows, None), (rows[::-1], (3, 20)), (rows[:5], None)):
        assert not encode(encoder, Word.make(encoder.source, 0, message), window).is_zero
    taps = sum(1 for tap in encoder.taps if tap.symbols)
    assert taps > 1 and len(packed) == taps


def test_generators_recurse_into_the_checked_multiple(monkeypatch):
    # the p*G whose certified words scaled_finite_words_check compares is the
    # object canonical_generators recurses into, so the recursion reads the
    # near-end states the check built instead of building them again
    made = []
    original = encoders.multiple_shift
    monkeypatch.setattr(encoders, "multiple_shift", lambda *args:
                        made.append((args, original(*args))) or made[-1][1])
    shift = parse_spec((ROOT / "tests" / "golden" / "z8-z4.spec").read_text()).shift
    assert conjugacy_certificate(shift, Horizons.derive(shift)).complete
    objects = {}
    for args, scaled in made:
        objects.setdefault(args, set()).add(id(scaled))  # `made` keeps each alive
    assert len(made) > len(objects) and all(len(ids) == 1 for ids in objects.values())


def test_solves_over_placed_taps_stay_packed(monkeypatch):
    # a lift solves on the packed certified words and unpacks only the word
    # it returns; the tap and injectivity solvers place each tap as packed
    # rows, with no Word per placement
    def refuse(*args):
        raise AssertionError("unpacked rows or a placed Word")
    golden = ROOT / "tests" / "golden"
    shift = parse_spec((golden / "delay-rep.spec").read_text()).shift
    encoder = conjugacy_certificate(shift, Horizons.derive(shift)).product_encoder
    image = encode(encoder, Word.make(encoder.source, 0, [(1,) * encoder.source.rank] * 3))
    z4 = FiniteAbelianGroup.parse("Z4")
    echo = GroupShift.make(z4, [Word.make(z4, 0, [(1,), (1,)])])
    x2 = Word.make(z4, 0, [(2,), (2,)])

    monkeypatch.setattr(HowellForm, "rows", property(refuse))
    assert lift_height(full_shift(z4), impulse(z4, (2,)), 2, 1, 2) == \
        impulse(z4, (1,))
    y2 = lift_height(echo, x2, 2, 1, 2)
    assert y2 is not None and y2.scaled(2) == x2
    monkeypatch.undo()

    monkeypatch.setattr(Word, "shifted", refuse)
    assert check_injectivity(encoder, 16).block is not None
    message = solve_finite_preimage(encoder, image, 2)
    assert message is not None and encode(encoder, message) == image

def test_runtime_imports_only_the_standard_library():
    # numpy may be importable, but the package does not depend on it
    for path in sorted((ROOT / "src" / "groupshift").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "groupshift", \
                    f"{path.name} imports {name}"


def test_src_has_no_test_only_entry_points():
    # a top-level function or class is used when its name occurs as a name
    # or an attribute in src/ outside its own definition, a non-dunder
    # method only when it occurs as an attribute, so that a local or an
    # imported name of the same spelling hides no method; code that only
    # the tests call lives in tests/conftest.py
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "groupshift").glob("*.py"))
             if path.name != "__init__.py"]
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name, node, (ast.Name, ast.Attribute)))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name, m, ast.Attribute) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
    unused = set()
    for label, name, node, kinds in defs:
        own = {id(n) for n in ast.walk(node)}
        if not any(id(n) not in own and name in (getattr(n, "id", None), getattr(n, "attr", None))
                   for tree in trees for n in ast.walk(tree) if isinstance(n, kinds)):
            unused.add(label)
    # perfbench/ wraps, reads or calls the first five by name, which keeps
    # them in src/ until the next benchmark change (ROADMAP 1c); `member` is
    # a documented feature
    assert unused == {"PackedRows.nrows", "socle_shift", "solve_finite_preimage",
                      "torsion_window_projection", "FiniteAbelianGroup.parse", "member"}


def test_every_cache_in_src_is_bounded():
    # an unbounded cache keeps every entry for the life of the process
    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    for path in sorted((ROOT / "src" / "groupshift").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '')}"
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cache" not in [a.name for a in node.names], where
            elif isinstance(node, ast.Attribute) and name(node.value) == "functools":
                assert node.attr != "cache", where
            elif isinstance(node, (ast.Name, ast.Attribute)) and name(node) == "lru_cache":
                assert id(node) in called, f"{where}: bare lru_cache"
            elif isinstance(node, ast.Call) and name(node.func) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                assert sizes and not (isinstance(sizes[0], ast.Constant)
                                      and sizes[0].value is None), where


def test_shift_caches_stay_within_their_bounds():
    # more distinct shifts than any bound, each asking for a window and its
    # certified words
    rng = random.Random(21)
    seen = set()
    while len(seen) < 70:
        shift = random_shift(rng)
        if shift not in seen:
            seen.add(shift)
            shift.window(0, 3)
            shifts.supported_words(shift, 3)
    for cache in (shifts._window_module, shifts.supported_words,
                  residues._lane_layout, residues._pivot_arithmetic):
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, (cache.__wrapped__.__name__, info)
