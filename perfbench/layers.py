"""The library boundary the benchmark measures.

Spans are recorded only at public calls into the package: the calls a CLI
command handler makes (by replacing the names it looks up in
``detpowers.cli`` inside the operation's own child process) and the calls
the library-only operations make. Each span's details come from the
arguments and the returned report, never from inside the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from types import SimpleNamespace

import detpowers
from detpowers import cli


def _built(args, kwargs, dec):
    return {"terms": len(dec.terms)}


def _verified(args, kwargs, report):
    dec = args[0]
    target_monomials = (math.factorial(dec.d) if dec.target == "determinant"
                        else 1)
    return {"mode": report.mode, "jobs": kwargs.get("jobs", 1),
            "monomials": report.distinct_monomials,
            "target_monomials": target_monomials}


def _independence(args, kwargs, result):
    return {"n": args[0] * math.factorial(args[0])}


def _enumerated(args, kwargs, enum):
    return {"elements": enum.full_order}


def _located(args, kwargs, count):
    return {"mode": count.mode, "d": count.d, "p": count.p,
            "affine": count.affine_solutions}


# layer -> {public name: describe}; the same names exist in ``detpowers``
# and, for every name a command handler calls, in ``detpowers.cli``
LAYERS = {
    "decompositions": {
        "main_decomposition": _built,
        "classical_decomposition": _built,
        "gurvits_decomposition": _built,
        "monomial_power_decomposition": _built,
        "krishna_makam_det3": None,
    },
    "verify": {
        "verify_power_decomposition": _verified,
        "verify_product_identity": None,
    },
    "independence": {
        "separation_violations": _independence,
        "check_promotion": _independence,
        "rank_oracle": _independence,
    },
    "symmetry": {
        "enumerate_symmetries": _enumerated,
        "check_symmetry_action": None,
        "sample_symmetry_actions": None,
        "check_affine_characterization": None,
        "check_sign_formulas": None,
        "transpose_closure": None,
        "conjugate_decomposition": None,
    },
    "varieties": {
        "vanish_on_points": None,
        "extra_generators": None,
        "finite_field_locus_count": _located,
    },
}


def _wrapped(tracer, module) -> dict:
    out = {}
    for layer, names in LAYERS.items():
        for name, describe in names.items():
            if hasattr(module, name):
                out[name] = tracer.wrap(f"{layer}.{name}",
                                        getattr(module, name), describe)
    return out


def library(tracer) -> SimpleNamespace:
    """The package's public functions, traced when the tracer is on. The
    scheme builders are reachable by scheme name through ``builders``."""
    lib = SimpleNamespace(**_wrapped(tracer, detpowers))
    lib.builders = {scheme: getattr(lib, fn.__name__)
                    for scheme, fn in detpowers.SCHEME_BUILDERS.items()}
    return lib


def run_cli(argv: list[str], tracer) -> dict:
    """``detpowers <argv>`` in this process. Returns the exit code and the
    parsed JSON report printed on standard output."""
    if tracer.enabled:
        for name, fn in _wrapped(tracer, cli).items():
            setattr(cli, name, fn)
        cli.SCHEME_BUILDERS = library(tracer).builders
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return {"exit": code, "report": report}
