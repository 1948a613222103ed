"""Per-layer metrics from one span-traced and one profiled pass.

Span times are measured with the profiler off. Call counts and self times
come from the profiled pass: counts are exact, self times are inflated by
the profiler and carry the unit ``s-profiled``. Only the operation's own
process is profiled, so work done in the worker processes of a ``--jobs 2``
operation is missing from the counts. Work counts (terms, monomials, group
elements, rows) are read from the reports the library returns, or follow
from the call's arguments, as noted per metric.
"""

from __future__ import annotations

import math

PROFILED = "s-profiled"

# name -> unit, in the order they are printed
PER_LAYER = {
    "cli.report_s": "s",
    "command.verify_s": "s",
    "command.independence_s": "s",
    "command.symmetries_s": "s",
    "command.equations_s": "s",
    "decompositions.build_s": "s",
    "decompositions.terms": "count",
    "multipoly.expand_power_calls": "count",
    "multipoly.weak_compositions_calls": "count",
    "multipoly.self_s": PROFILED,
    "cyclotomic.mul_calls": "count",
    "cyclotomic.add_calls": "count",
    "cyclotomic.inverse_calls": "count",
    "cyclotomic.self_s": PROFILED,
    "verify.expansion_s": "s",
    "verify.expansion_jobs2_s": "s",
    "verify.streaming_s": "s",
    "verify.product_s": "s",
    "verify.monomials": "count",
    "verify.useful_ratio": "ratio",
    "verify.reject_s": "s",
    "verify.wrong_verdicts": "count",
    "independence.separation_s": "s",
    "independence.promotion_s": "s",
    "independence.rank_s": "s",
    "independence.pairings": "count",
    "independence.rank_rows": "count",
    "symmetry.enumerate_s": "s",
    "symmetry.elements": "count",
    "symmetry.action_s": "s",
    "symmetry.closure_s": "s",
    "symmetry.conjugate_s": "s",
    "symmetry.self_s": PROFILED,
    "varieties.vanishing_s": "s",
    "varieties.extra_s": "s",
    "varieties.locus_full_s": "s",
    "varieties.full_rows": "count",
    "varieties.full_rows_per_s": "1/s",
    "varieties.full_bytes_computed": "bytes",
    "varieties.locus_staged_s": "s",
    "varieties.staged_candidates": "count",
    "varieties.solution_ratio": "ratio",
    "trace.traced_pass_s": "s",
    "trace.profiled_pass_s": "s",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _full_bytes(d: int, rows: int) -> int:
    """Bytes of the arrays the full GF(p) count materialises, computed from
    their sizes: per candidate matrix one int64 index, one int32 value per
    entry and one bool of the solution mask. Cache traffic is not included."""
    return rows * (8 + 4 * d * d + 1)


def layer_metrics(traced: dict, profiled: dict) -> dict:
    values = dict.fromkeys(PER_LAYER, 0)

    def add(name: str, amount: float) -> None:
        values[name] = values.get(name, 0) + amount

    for record in traced["records"]:
        op, message = record["op"], record["message"]
        add(f"command.{op.command}_s", message["wall_s"])
        if op.command == "verify" and (record["error"] or record["wrong"]):
            add("verify.wrong_verdicts", 1)
        if record["error"]:
            continue
        spans = message["spans"]
        if op.cli:
            top = sum(_duration(s) for s in spans if s["parent"] is None)
            add("cli.report_s", message["end"] - message["start"] - top)
        for span in spans:
            _add_span(add, op, span)

    for record in profiled["records"]:
        profile = record["message"].get("profile")
        if profile is None:
            continue
        for name, count in profile["calls"].items():
            add(name, count)
        for layer, seconds in profile["self_s"].items():
            add(f"{layer}.self_s", seconds)

    values["verify.useful_ratio"] = _ratio(values.pop("_target_monomials", 0),
                                           values["verify.monomials"])
    values["varieties.full_rows_per_s"] = _ratio(
        values["varieties.full_rows"], values["varieties.locus_full_s"])
    values["varieties.solution_ratio"] = _ratio(
        values.pop("_staged_solutions", 0), values["varieties.staged_candidates"])
    values["trace.traced_pass_s"] = traced["wall_s"]
    values["trace.profiled_pass_s"] = profiled["wall_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


_SPAN_METRIC = {
    "verify.verify_product_identity": "verify.product_s",
    "independence.separation_violations": "independence.separation_s",
    "independence.check_promotion": "independence.promotion_s",
    "independence.rank_oracle": "independence.rank_s",
    "symmetry.enumerate_symmetries": "symmetry.enumerate_s",
    "symmetry.check_symmetry_action": "symmetry.action_s",
    "symmetry.sample_symmetry_actions": "symmetry.action_s",
    "symmetry.transpose_closure": "symmetry.closure_s",
    "symmetry.conjugate_decomposition": "symmetry.conjugate_s",
    "varieties.vanish_on_points": "varieties.vanishing_s",
    "varieties.extra_generators": "varieties.extra_s",
}


def _add_span(add, op, span: dict) -> None:
    name, info, seconds = span["name"], span.get("info") or {}, _duration(span)
    layer = name.split(".", 1)[0]
    if layer == "decompositions":
        add("decompositions.build_s", seconds)
        add("decompositions.terms", info.get("terms", 0))
    elif name == "verify.verify_power_decomposition":
        if op.reject:
            add("verify.reject_s", seconds)
        elif info["mode"] == "streaming":
            add("verify.streaming_s", seconds)
        elif info["jobs"] > 1:
            add("verify.expansion_jobs2_s", seconds)
        else:
            add("verify.expansion_s", seconds)
        if info["mode"] == "expansion" and not op.reject:
            add("verify.monomials", info["monomials"])
            add("_target_monomials", info["target_monomials"])
    elif name == "varieties.finite_field_locus_count":
        d, p = info["d"], info["p"]
        if info["mode"] == "full":
            add("varieties.locus_full_s", seconds)
            add("varieties.full_rows", p ** (d * d))
            add("varieties.full_bytes_computed", _full_bytes(d, p ** (d * d)))
        else:
            add("varieties.locus_staged_s", seconds)
            add("varieties.staged_candidates", math.factorial(d) * (p - 1) ** d)
            add("_staged_solutions", info["affine"])
    elif name in _SPAN_METRIC:
        add(_SPAN_METRIC[name], seconds)
        if name in ("independence.separation_violations",
                    "independence.check_promotion"):
            add("independence.pairings", info["n"] ** 2)
        elif name == "independence.rank_oracle":
            add("independence.rank_rows", info["n"])
        elif name == "symmetry.enumerate_symmetries":
            add("symmetry.elements", info["elements"])
