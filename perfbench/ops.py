"""One operation per workload, and the values its CLI report would print.

Each operation makes the library calls that the matching ``cmd_*`` in
``cli.py`` makes for one input, minus spec parsing and text formatting.
Calls go through module attributes so that the tracer's wrappers, which are
installed on those attributes, see them.  The summaries read plain fields of
the results; they run outside the timed interval.
"""

from __future__ import annotations

import hashlib
import json

from groupshift import control, encoders, groups, residues, shifts, words

#: Same as the CLI defaults for certify and encode.
TRIALS = 64
CHECK_SEED = 0
FT_CAP = 8
ORACLE_ENUM_CAP = 1 << 20


def build_shift(alphabet: str, gens) -> shifts.GroupShift:
    group = groups.FiniteAbelianGroup.parse(alphabet)
    return shifts.GroupShift.make(
        group, [words.Word.make(group, start, syms) for start, syms in gens])


def run_certify(shift):
    horizons = encoders.Horizons.derive(shift)
    return horizons, encoders.conjugacy_certificate(
        shift, horizons, trials=TRIALS, seed=CHECK_SEED)


def run_analyze(shift):
    horizons = encoders.Horizons.derive(shift)
    wh = horizons.window_horizon
    weak = control.weak_controllability_check(
        shift, "self", horizon=wh, margin=horizons.margin)
    socle = [(p, control.weak_controllability_check(
        shift, "socle", p=p, horizon=wh, margin=horizons.margin))
        for p in shift.alphabet.primes()]
    ft = shifts.finite_type_memory(shift, cap=FT_CAP, horizon=wh)
    ctrl = control.analyze_controllability(shift, cap=horizons.n_cap, horizon=wh)
    return horizons, weak, socle, ft, ctrl


def run_encode(encoder, message):
    return encoders.encode(encoder, message)


def run_oracle(shift, hi: int):
    group = shift.alphabet
    r = group.rank
    elements = shifts.enumerate_window_code(shift, 0, hi, cap=ORACLE_ENUM_CAP)
    scaled = [words.Word.make(group, 0, [flat[k * r:(k + 1) * r]
                                         for k in range(hi + 1)]).window_vector(0, hi)
              for flat in elements]
    form = residues.howell_form(scaled, max(group.exponent, 2))
    return elements, form


# -- report values -----------------------------------------------------------


def word_data(w) -> list:
    return [w.start, [list(s) for s in w.symbols]]


def _horizons(h) -> list[int]:
    return [h.margin, h.support_cap, h.block_cap, h.window_horizon, h.n_cap]


def encoder_data(enc) -> dict:
    return {"source": [list(f) for f in enc.source.factors],
            "memory": enc.memory, "heights": list(enc.heights),
            "primes": list(enc.tap_primes),
            "taps": [word_data(t) for t in enc.taps]}


def certify_values(result) -> tuple[dict, str]:
    horizons, cert = result
    primaries = []
    for pc in cert.primaries:
        genset = None
        if pc.genset is not None:
            g = pc.genset
            genset = {"order_index": g.order_index, "socle_rank": g.socle_rank,
                      "entries": [[e.height, word_data(e.torsion_word),
                                   word_data(e.tap)] for e in g.entries]}
        primaries.append({"prime": pc.prime, "genset": genset,
                          "checks": [[c.name, c.passed, c.detail] for c in pc.checks],
                          "complete": pc.complete})
    values = {"horizons": _horizons(horizons), "primaries": primaries,
              "global": [[c.name, c.passed] for c in cert.global_checks],
              "encoder": (encoder_data(cert.product_encoder)
                          if cert.product_encoder is not None else None),
              "complete": cert.complete}
    failing = [str(pc.failing_stage) for pc in cert.primaries if not pc.complete]
    verdict = "complete" if cert.complete else "partial:" + ",".join(failing or ["global"])
    return values, verdict


def _monotone(table) -> bool:
    seen = False
    for ok in table:
        if seen and not ok:
            return False
        seen = seen or ok
    return True


def analyze_values(result) -> tuple[dict, str]:
    horizons, weak, socle, ft, ctrl = result
    negative = not weak.holds or ft.memory is None
    searches = {}
    for label, s in (("controllability", ctrl.plain),
                     ("order_controllability", ctrl.ordered)):
        monotone = _monotone(s.condition_table)
        searches[label] = {
            "index": s.index, "cap": s.cap,
            "past_horizons": list(s.past_horizons),
            "condition_table": list(s.condition_table), "monotone": monotone,
            "witness": word_data(s.witness) if s.witness is not None else None}
        negative |= s.index is None or not monotone
    consistent = None
    if ctrl.plain.index is not None and ctrl.ordered.index is not None:
        consistent = ctrl.plain.index <= ctrl.ordered.index
        negative |= not consistent
    negative |= not all(rep.holds for _, rep in socle)
    values = {"horizons": _horizons(horizons),
              "weak": [weak.holds, [list(w) for w in weak.windows]],
              "socle": [[p, rep.holds, rep.detail] for p, rep in socle],
              "finite_type": [ft.memory, ft.cap], "searches": searches,
              "n_c_le_n_o": consistent}
    verdict = "negative" if negative else "pass"
    return values, verdict


def oracle_values(result, hi: int) -> tuple[dict, str]:
    elements, form = result
    h = hashlib.sha256()
    for e in elements:
        h.update((",".join(map(str, e)) + "\n").encode())
    values = {"window": [0, hi], "code_size": len(elements),
              "elements_sha256": h.hexdigest(), "image_size": form.size(),
              "rows": [list(r) for r in form.rows]}
    return values, f"code_size={len(elements)}"


def digest(values) -> str:
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]
