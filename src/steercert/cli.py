"""Command-line front end.

Commands: ``verify``, ``choi``, ``extremality``, ``lhs``, ``security-cert``,
``reproduce``, ``schema``.  Exit codes: 0 PASS, 1 FAIL, 2 INCONCLUSIVE,
3 INPUT_ERROR.  Reports are byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import gallery
from .core import NnlsDidNotConverge, Tolerances
from .channels import verify_cptp
from .assemblages import (
    LhsModel,
    canonicalize_pure,
    lhs_assemblage,
    pure_lhs_decide,
    verify_ns,
)
from .channel_assemblages import (
    chanasm_from_realization,
    to_choi_assemblage,
    verify_asym_ns,
    verify_ns_channel,
)
from .certificates import ConstraintMode, Verdict, decomposition_analysis
from .documents import Document, DocumentError, Realization, SCHEMA, parse, serialize
from .security import correlations, eavesdropper_pinning, perfect_key_check

PASS, FAIL, INCONCLUSIVE, INPUT_ERROR = "PASS", "FAIL", "INCONCLUSIVE", "INPUT_ERROR"
_EXIT = {PASS: 0, FAIL: 1, INCONCLUSIVE: 2, INPUT_ERROR: 3}


@dataclass
class Report:
    command: str
    status: str
    details: dict
    tolerances: dict

    def to_json(self) -> dict:
        return {"command": self.command, "status": self.status,
                "details": self.details, "tolerances": self.tolerances}


def _tol_dict(args) -> dict:
    """The tolerance flags as given, echoed in every report."""
    return {"abs_tol": args.abs_tol, "rank_rel_tol": args.rank_tol,
            "nnls_residual_tol": args.nnls_tol}


def _load(path: str) -> Document:
    with open(path, "rb") as fh:
        return parse(fh.read())


def _emit(report: Report, args) -> int:
    if args.output == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(f"[{report.status}] {report.command}")
        for key in sorted(report.details):
            print(f"  {key}: {report.details[key]}")
    return _EXIT[report.status]


def _input_error(command, message, args) -> int:
    return _emit(Report(command, INPUT_ERROR, {"error": message},
                        _tol_dict(args)), args)


def _violation_details(violations) -> list:
    return [{"constraint": v.constraint, "magnitude": v.magnitude}
            for v in violations]


def cmd_verify(args) -> int:
    try:
        doc = _load(args.document)
        report, details = _verify(doc, args.mode, args.tol.abs_tol)
    except (OSError, DocumentError, ValueError) as exc:
        return _input_error("verify", str(exc), args)
    return _emit(Report("verify", PASS if report.ok else FAIL, details,
                        _tol_dict(args)), args)


def _verify(doc: Document, mode: str, abs_tol: float):
    """The verification report of ``doc`` and its details; ``ValueError``
    if the mode does not apply to the document."""
    if doc.kind == "assemblage" and mode in ("auto", "ns"):
        report = verify_ns(doc.payload, abs_tol)
        return report, {"mode": "ns", "max_violation": report.max_violation,
                        "violations": _violation_details(report.violations)}
    if doc.kind == "channel" and mode in ("auto", "cptp"):
        report = verify_cptp(doc.payload, abs_tol)
        return report, {"mode": "cptp", "cp": report.cp, "tp": report.tp,
                        "min_eigenvalue": report.min_eigenvalue,
                        "tp_deviation": report.tp_deviation}
    if doc.kind == "channel_assemblage" and mode in ("auto", "ns"):
        report = verify_ns_channel(doc.payload, abs_tol)
        ns = report.assemblage_report
        return report, {
            "mode": "ns-channel",
            "trace_condition_deviation": report.trace_condition_deviation,
            "max_violation": ns.max_violation,
            "violations": _violation_details(ns.violations),
        }
    if doc.kind == "channel_assemblage" and mode == "asym-ns":
        report = verify_asym_ns(doc.payload, abs_tol)
        return report, {"mode": "asym-ns", "max_violation": report.max_violation,
                        "violations": _violation_details(report.violations)}
    raise ValueError(f"mode '{mode}' is not applicable to kind '{doc.kind}'")


def cmd_choi(args) -> int:
    try:
        doc = _load(args.document)
    except (OSError, DocumentError) as exc:
        return _input_error("choi", str(exc), args)
    if doc.kind == "channel":
        out = serialize(doc.payload)  # canonical Choi form
    elif doc.kind == "channel_assemblage":
        out = serialize(to_choi_assemblage(doc.payload))
    else:
        return _input_error("choi", f"kind '{doc.kind}' has no Choi form", args)
    print(json.dumps(out, sort_keys=True))
    return 0


def _pure_from_document(doc: Document, tol: Tolerances):
    if doc.kind == "assemblage":
        assemblage = doc.payload
    elif doc.kind == "channel_assemblage":
        assemblage = to_choi_assemblage(doc.payload)
    elif doc.kind == "realization":
        assemblage = _assemblage_from_realization_doc(doc.payload)
    else:
        raise DocumentError(f"kind '{doc.kind}' carries no assemblage")
    return canonicalize_pure(assemblage, tol)


def _assemblage_from_realization_doc(real: Realization):
    if real.channel is None:
        from .assemblages import assemblage_from_realization
        return assemblage_from_realization(real.state, real.povms, real.scenario)
    l = chanasm_from_realization(real.state, real.povms, real.channel,
                                 real.scenario)
    return to_choi_assemblage(l)


def cmd_extremality(args) -> int:
    tol = args.tol
    try:
        doc = _load(args.document)
        pure = _pure_from_document(doc, tol)
    except (OSError, DocumentError, ValueError) as exc:
        return _input_error("extremality", str(exc), args)
    mode = ConstraintMode.FULL_NS if args.mode == "full" else ConstraintMode.ASYM_NS
    try:
        cert = decomposition_analysis(pure, mode, tol)
    except ValueError as exc:
        return _input_error("extremality", str(exc), args)
    if args.certificate_out:
        with open(args.certificate_out, "w") as fh:
            json.dump(cert.to_json(), fh, sort_keys=True, indent=2)
    details = {"verdict": cert.verdict.value, "rank": cert.rank,
               "nullity": cert.nullity,
               "rank_margin": list(cert.rank_margin),
               "pinned": [[list(a), list(x)] for a, x in cert.pinned]}
    return _emit(Report("extremality", PASS, details, _tol_dict(args)), args)


def cmd_lhs(args) -> int:
    tol = args.tol
    try:
        doc = _load(args.document)
        pure = _pure_from_document(doc, tol)
    except (OSError, DocumentError, ValueError) as exc:
        return _input_error("lhs", str(exc), args)
    try:
        verdict = pure_lhs_decide(pure, tol)
    except NnlsDidNotConverge as exc:
        return _emit(Report("lhs", INCONCLUSIVE, {"error": str(exc)},
                            _tol_dict(args)), args)
    if isinstance(verdict, LhsModel):
        details = {"lhs": True, "hidden_variables": len(verdict.weights),
                   "weights": [float(w) for w in verdict.weights]}
    else:
        details = {"lhs": False, "reason": verdict.reason}
        if verdict.residual is not None:
            details["residual"] = verdict.residual
    return _emit(Report("lhs", PASS, details, _tol_dict(args)), args)


def cmd_security_cert(args) -> int:
    tol = args.tol
    try:
        doc = _load(args.document)
    except (OSError, DocumentError) as exc:
        return _input_error("security-cert", str(exc), args)
    if doc.kind != "channel_assemblage":
        return _input_error("security-cert",
                            "expected a channel_assemblage document", args)
    l = doc.payload
    try:
        pure = canonicalize_pure(to_choi_assemblage(l), tol)
        pin = eavesdropper_pinning(pure, args.x_key, args.y_key, tol)
        table = correlations(l, gallery.key_input_state(),
                             gallery.key_measurement())
        key_ok = perfect_key_check(table, args.x_key, args.y_key, tol.abs_tol)
    except ValueError as exc:
        return _input_error("security-cert", str(exc), args)
    status = PASS if (pin.certified and key_ok) else FAIL
    details = {"pinning": pin.to_json(), "perfect_key": key_ok}
    return _emit(Report("security-cert", status, details, _tol_dict(args)), args)


def _reproduce_example1(tol: Tolerances) -> dict:
    l = gallery.bell_cnot_assemblage()
    expected = gallery.bell_cnot_expected_members()
    dev = max(float(np.max(np.abs(l.members[pos].op.data - mat)))
              for pos, mat in expected.items())
    ns = verify_ns_channel(l, tol.abs_tol)
    return {"max_matrix_deviation": dev,
            "ns_pass": ns.ok,
            "ok": dev < 1e-9 and ns.ok}


def _reproduce_asym(tol: Tolerances) -> dict:
    pure = canonicalize_pure(to_choi_assemblage(gallery.bell_cnot_assemblage()),
                             tol)
    cert = decomposition_analysis(pure, ConstraintMode.ASYM_NS, tol)
    plus, minus = gallery.nonextremal_split_coefficients()
    cols = cert.system.columns
    c_plus = np.array([plus[pos] for pos in cols])
    c_minus = np.array([minus[pos] for pos in cols])
    split_dev = max(cert.system.residual_of(c_plus),
                    cert.system.residual_of(c_minus))
    avg_dev = float(np.max(np.abs((c_plus + c_minus) / 2
                                  - cert.system.reference)))
    key_cols_pinned = all(pos in cert.pinned for pos in cols if pos[1] == (0, 0))
    return {"verdict": cert.verdict.value, "nullity": cert.nullity,
            "split_feasible_deviation": split_dev,
            "split_average_deviation": avg_dev,
            "key_setting_pinned": key_cols_pinned,
            "ok": (cert.verdict is Verdict.NON_UNIQUE and split_dev < 1e-9
                   and avg_dev < 1e-9 and key_cols_pinned)}


def _reproduce_appendix(tol: Tolerances) -> dict:
    l = gallery.tilted_cnot_assemblage()
    expected = gallery.tilted_cnot_expected_kets()
    dev = max(
        float(np.max(np.abs(l.members[pos].op.data - np.outer(k, k.conj()))))
        for pos, k in expected.items())
    pure = canonicalize_pure(to_choi_assemblage(l), tol)
    cert = decomposition_analysis(pure, ConstraintMode.ASYM_NS, tol)
    # Recovered per-member coefficients relative to the reference pattern.
    coeffs = cert.system.reference / np.array(
        [np.linalg.norm(expected[pos]) ** 2 for pos in cert.system.columns])
    return {"max_matrix_deviation": dev, "verdict": cert.verdict.value,
            "coefficients": [float(c) for c in coeffs],
            "ok": (dev < 1e-9 and cert.verdict is Verdict.UNIQUE_EXTREME
                   and float(np.max(np.abs(coeffs - 1))) < 1e-9)}


def _reproduce_key(tol: Tolerances) -> dict:
    l = gallery.bell_cnot_assemblage()
    table = correlations(l, gallery.key_input_state(), gallery.key_measurement())
    p000 = table.prob(0, 0, 0, 0, 0, 0)
    p111 = table.prob(1, 1, 1, 0, 0, 0)
    ok = abs(p000 - 0.5) < 1e-9 and abs(p111 - 0.5) < 1e-9 \
        and perfect_key_check(table, 0, 0, tol.abs_tol)
    return {"p000": p000, "p111": p111, "ok": ok}


_REPRODUCERS = {
    "example1": _reproduce_example1,
    "asym-nonextremal": _reproduce_asym,
    "appendix": _reproduce_appendix,
    "key": _reproduce_key,
}


def cmd_reproduce(args) -> int:
    tol = args.tol
    details = _REPRODUCERS[args.target](tol)
    ok = details.pop("ok")
    details["target"] = args.target
    return _emit(Report("reproduce", PASS if ok else FAIL, details,
                        _tol_dict(args)), args)


def cmd_schema(args) -> int:
    print(json.dumps(SCHEMA, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steercert",
        description="Verification and extremality certification for "
                    "state and channel assemblages.")
    parser.add_argument("--abs-tol", type=float, default=1e-9)
    parser.add_argument("--rank-tol", type=float, default=1e-8)
    parser.add_argument("--nnls-tol", type=float, default=1e-7)
    parser.add_argument("--output", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check constraint families of a document")
    p.add_argument("document")
    p.add_argument("--mode", choices=("auto", "ns", "cptp", "asym-ns"),
                   default="auto")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("choi", help="emit the Choi-space form of a document")
    p.add_argument("document")
    p.set_defaults(fn=cmd_choi)

    p = sub.add_parser("extremality", help="decomposition analysis certificate")
    p.add_argument("document")
    p.add_argument("--mode", choices=("full", "asym"), default="full")
    p.add_argument("--certificate-out")
    p.set_defaults(fn=cmd_extremality)

    p = sub.add_parser("lhs", help="local hidden state decision")
    p.add_argument("document")
    p.set_defaults(fn=cmd_lhs)

    p = sub.add_parser("security-cert", help="key pinning certificate")
    p.add_argument("document")
    p.add_argument("--x-key", type=int, default=0)
    p.add_argument("--y-key", type=int, default=0)
    p.set_defaults(fn=cmd_security_cert)

    p = sub.add_parser("reproduce", help="recompute a bundled construction")
    p.add_argument("target", choices=sorted(_REPRODUCERS))
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("schema", help="print the document JSON schema")
    p.set_defaults(fn=cmd_schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tol = Tolerances(abs_tol=args.abs_tol, rank_rel_tol=args.rank_tol,
                              nnls_residual_tol=args.nnls_tol)
    except ValueError as exc:
        return _input_error(args.command, str(exc), args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
