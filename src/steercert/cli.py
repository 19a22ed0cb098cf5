"""Command-line front end.

Commands: ``verify``, ``choi``, ``extremality``, ``lhs``, ``security-cert``,
``reproduce``, ``schema``.  Exit codes: 0 PASS, 1 FAIL, 2 INCONCLUSIVE,
3 INPUT_ERROR; a usage error that argparse refuses (an unknown mode or
target, a flag that is not a number, a missing argument) exits 3 too, with
argparse's message on standard error and no report.  Reports are
byte-deterministic for fixed inputs and flags.
``extremality --mode full`` certifies among no-signaling channel
assemblages (``ns-channel``) for a channel assemblage or a channel
realization, and among no-signaling assemblages (``full``) otherwise.

Each ``cmd_*`` takes the parsed arguments, the ``Tolerances`` and the parsed
``Document`` (``None`` for the commands that read none) and returns
``(status, details)``; ``choi`` and ``schema`` print a document instead and
return ``None``.  No command prints a report or handles an exception:
``main`` alone does.  It maps ``OSError`` (a missing or unreadable document,
an unwritable ``--certificate-out``) and ``ValueError`` (``DocumentError``,
a non-positive or non-finite tolerance, a ``--rank-tol`` of 1 or more or
below the float epsilon, a mode or key setting that does not apply, a
member that is not PSD) to INPUT_ERROR, exit 3, and ``NnlsDidNotConverge``
to INCONCLUSIVE, exit 2, with the message as ``details.error``.  A member that
:func:`.assemblages.canonicalize_pure` rejects
(:class:`.assemblages.MemberError`) is located at its entry,
``$.payload.members[j]``, in an assemblage or a channel assemblage
document (at ``$.payload.members`` when no member has trace above
``abs_tol``), and at ``$.payload`` in a realization; an assemblage that
violates the family a certificate is built from
(:class:`.certificates.UnsatisfiedReference`), a correlation table that
``security-cert`` refuses and a realization whose dims disagree (both
re-raised with this path) at ``$.payload``; a scenario that a family or a
check is not defined for (:class:`.core.ScenarioError`) at
``$.payload.scenario``; a command or mode that does not take the
document's kind at ``$.kind``.  A closed standard output loses the rest of the
output, with no traceback, and keeps the exit code (0 for ``choi``, ``schema``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import gallery
from .core import DEFAULT_TOL, NnlsDidNotConverge, ScenarioError, Tolerances
from .channels import verify_cptp
from .assemblages import (
    LhsModel,
    MemberError,
    assemblage_from_realization,
    canonicalize_pure,
    lhs_assemblage,
    pure_lhs_decide,
    verify_ns,
)
from .channel_assemblages import (
    ChannelAssemblage,
    chanasm_from_realization,
    to_choi_assemblage,
    verify_asym_ns,
    verify_ns_channel,
)
from .certificates import (ConstraintMode, UnsatisfiedReference, Verdict,
                           decomposition_analysis)
from .documents import Document, DocumentError, SCHEMA, parse, serialize
from .security import (correlations, eavesdropper_pinning, key_scenario_check,
                       perfect_key_check)

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


def _emit(report: Report, args) -> None:
    if args.output == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(f"[{report.status}] {report.command}")
        for key in sorted(report.details):
            print(f"  {key}: {report.details[key]}")


def _violation_details(report) -> dict:
    return {"max_violation": report.max_violation,
            "violations": [{"constraint": v.constraint, "magnitude": v.magnitude}
                           for v in report.violations]}


def cmd_verify(args, tol: Tolerances, doc: Document):
    mode, kind = args.mode, doc.kind
    if kind == "assemblage" and mode in ("auto", "ns"):
        report = verify_ns(doc.payload, tol.abs_tol)
        details = {"mode": "ns", **_violation_details(report)}
    elif kind == "channel" and mode in ("auto", "cptp"):
        report = verify_cptp(doc.payload, tol.abs_tol)
        details = {"mode": "cptp", "cp": report.cp, "tp": report.tp,
                   "min_eigenvalue": report.min_eigenvalue,
                   "tp_deviation": report.tp_deviation}
    elif kind == "channel_assemblage" and mode in ("auto", "ns"):
        report = verify_ns_channel(doc.payload, tol.abs_tol)
        details = {"mode": "ns-channel",
                   "trace_condition_deviation": report.trace_condition_deviation,
                   **_violation_details(report.assemblage_report)}
    elif kind == "channel_assemblage" and mode == "asym-ns":
        report = verify_asym_ns(doc.payload, tol.abs_tol)
        details = {"mode": "asym-ns", **_violation_details(report)}
    else:
        raise DocumentError(f"mode '{mode}' is not applicable to kind '{kind}'", "$.kind")
    return PASS if report.ok else FAIL, details


def cmd_choi(args, tol: Tolerances, doc: Document) -> None:
    if doc.kind == "channel":
        out = serialize(doc.payload)  # canonical Choi form
    elif doc.kind == "channel_assemblage":
        out = serialize(to_choi_assemblage(doc.payload))
    else:
        raise DocumentError(f"kind '{doc.kind}' has no Choi form", "$.kind")
    print(json.dumps(out, sort_keys=True))


def _assemblage(doc: Document):
    """The assemblage of an assemblage, channel assemblage or realization
    document; a realization's faults are located at ``$.payload``."""
    payload = doc.payload
    if doc.kind in ("assemblage", "channel_assemblage"):
        return payload
    if doc.kind != "realization":
        raise DocumentError(f"kind '{doc.kind}' carries no assemblage", "$.kind")
    try:
        if payload.channel is None:
            return assemblage_from_realization(payload.state, payload.povms,
                                               payload.scenario)
        return chanasm_from_realization(payload.state, payload.povms, payload.channel,
                                        payload.scenario)
    except ValueError as exc:
        raise DocumentError(str(exc), "$.payload") from None


def _located(exc: MemberError, doc: Document) -> str:
    """``exc``'s message, prefixed with the JSON path of the member's entry
    (of the member list, for a fault with no position) when ``doc`` is an
    assemblage or a channel assemblage document, and with ``$.payload`` for
    a realization, whose members are computed from its state and
    measurements."""
    if doc is not None and doc.kind == "realization":
        return str(DocumentError(str(exc), "$.payload"))
    if doc is not None and doc.member_at is not None:
        if exc.position is None:
            return str(DocumentError(str(exc), "$.payload.members"))
        j = np.flatnonzero(doc.member_at == doc.payload.scenario.index(*exc.position))
        if j.size:
            return str(DocumentError(str(exc), f"$.payload.members[{j[0]}]"))
    return str(exc)


def cmd_extremality(args, tol: Tolerances, doc: Document):
    assemblage = _assemblage(doc)
    mode = (ConstraintMode.ASYM_NS if args.mode == "asym"
            else ConstraintMode.NS_CHANNEL if isinstance(assemblage, ChannelAssemblage)
            else ConstraintMode.FULL_NS)
    cert = decomposition_analysis(canonicalize_pure(assemblage, tol), mode, tol)
    if args.certificate_out:
        with open(args.certificate_out, "w") as fh:
            json.dump(cert.to_json(), fh, sort_keys=True, indent=2)
    return PASS, {key: value for key, value in cert.to_json().items()
                  if key not in ("mode", "witness_pair", "columns")}


def cmd_lhs(args, tol: Tolerances, doc: Document):
    assemblage = _assemblage(doc)
    verdict = pure_lhs_decide(canonicalize_pure(assemblage, tol), tol)
    if isinstance(verdict, LhsModel):
        rebuilt = lhs_assemblage(verdict, assemblage.scenario).members
        return PASS, {"lhs": True, "hidden_variables": len(verdict.weights),
                      "weights": verdict.weights.tolist(),
                      "reconstruction_residual":
                          float(np.max(np.abs(rebuilt - assemblage.members)))}
    details = {"lhs": False, "reason": verdict.reason}
    if verdict.residual is not None:
        details["residual"] = verdict.residual
    return PASS, details


def cmd_security_cert(args, tol: Tolerances, doc: Document):
    if doc.kind != "channel_assemblage":
        raise DocumentError("expected a channel_assemblage document", "$.kind")
    rho, charlie = gallery.key_input_state(), gallery.key_measurement()
    key_scenario_check(doc.payload.scenario, rho, charlie)
    pin = eavesdropper_pinning(canonicalize_pure(doc.payload, tol), args.x_key, args.y_key, tol)
    try:
        table = correlations(doc.payload, rho, charlie, tol.abs_tol)
    except ValueError as exc:
        raise DocumentError(str(exc), "$.payload") from None
    key_ok = perfect_key_check(table, args.x_key, args.y_key, tol.abs_tol)
    return (PASS if (pin.certified and key_ok) else FAIL,
            {"pinning": pin.to_json(), "perfect_key": key_ok})


def _reproduce_example1(tol: Tolerances) -> dict:
    l = gallery.bell_cnot_assemblage()
    expected = gallery.bell_cnot_expected_members()
    dev = max(float(np.max(np.abs(l.member(*pos) - mat)))
              for pos, mat in expected.items())
    ns = verify_ns_channel(l, tol.abs_tol)
    return {"max_matrix_deviation": dev,
            "ns_pass": ns.ok,
            "ok": dev < tol.abs_tol and ns.ok}


def _reproduce_asym(tol: Tolerances) -> dict:
    pure = canonicalize_pure(gallery.bell_cnot_assemblage(), tol)
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
            "ok": (cert.verdict is Verdict.NON_UNIQUE and split_dev < tol.abs_tol
                   and avg_dev < tol.abs_tol and key_cols_pinned)}


def _reproduce_appendix(tol: Tolerances) -> dict:
    l = gallery.tilted_cnot_assemblage()
    expected = gallery.tilted_cnot_expected_kets()
    dev = max(
        float(np.max(np.abs(l.member(*pos) - np.outer(k, k.conj()))))
        for pos, k in expected.items())
    pure = canonicalize_pure(l, tol)
    cert = decomposition_analysis(pure, ConstraintMode.ASYM_NS, tol)
    # Recovered per-member coefficients relative to the reference pattern.
    coeffs = cert.system.reference / np.array(
        [np.linalg.norm(expected[pos]) ** 2 for pos in cert.system.columns])
    return {"max_matrix_deviation": dev, "verdict": cert.verdict.value,
            "coefficients": [float(c) for c in coeffs],
            "ok": (dev < tol.abs_tol and cert.verdict is Verdict.UNIQUE_EXTREME
                   and float(np.max(np.abs(coeffs - 1))) < tol.abs_tol)}


def _reproduce_key(tol: Tolerances) -> dict:
    l = gallery.bell_cnot_assemblage()
    table = correlations(l, gallery.key_input_state(), gallery.key_measurement())
    p000 = float(table[0, 0, 0, 0, 0, 0])
    p111 = float(table[0, 0, 0, 1, 1, 1])
    ok = abs(p000 - 0.5) < tol.abs_tol and abs(p111 - 0.5) < tol.abs_tol \
        and perfect_key_check(table, 0, 0, tol.abs_tol)
    return {"p000": p000, "p111": p111, "ok": ok}


_REPRODUCERS = {
    "example1": _reproduce_example1,
    "asym-nonextremal": _reproduce_asym,
    "appendix": _reproduce_appendix,
    "key": _reproduce_key,
}


def cmd_reproduce(args, tol: Tolerances, doc: None):
    details = _REPRODUCERS[args.target](tol)
    ok = details.pop("ok")
    details["target"] = args.target
    return PASS if ok else FAIL, details


def cmd_schema(args, tol: Tolerances, doc: None) -> None:
    print(json.dumps(SCHEMA, sort_keys=True, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steercert",
        description="Verification and extremality certification for "
                    "state and channel assemblages.")
    parser.add_argument("--abs-tol", type=float, default=DEFAULT_TOL.abs_tol)
    parser.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rank_rel_tol)
    parser.add_argument("--nnls-tol", type=float,
                        default=DEFAULT_TOL.nnls_residual_tol)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return _EXIT[INPUT_ERROR] if exc.code else 0
    given = {"abs_tol": args.abs_tol, "rank_rel_tol": args.rank_tol,
             "nnls_residual_tol": args.nnls_tol}
    # Echoed as given, a non-finite value as a string: JSON has no infinity.
    tolerances = {k: v if np.isfinite(v) else str(v) for k, v in given.items()}
    doc = None
    try:
        tol = Tolerances(**given)
        if "document" in args:
            with open(args.document, "rb") as fh:
                doc = parse(fh.read())
        result = args.fn(args, tol, doc)
    except BrokenPipeError:  # the command's own document found stdout closed
        result = None
    except NnlsDidNotConverge as exc:
        result = INCONCLUSIVE, {"error": str(exc)}
    except MemberError as exc:
        result = INPUT_ERROR, {"error": _located(exc, doc)}
    except UnsatisfiedReference as exc:  # the document's own assemblage
        result = INPUT_ERROR, {"error": str(DocumentError(str(exc), "$.payload"))}
    except ScenarioError as exc:
        result = INPUT_ERROR, {"error": str(DocumentError(str(exc), "$.payload.scenario"))}
    except (OSError, ValueError) as exc:
        result = INPUT_ERROR, {"error": str(exc)}
    code = 0 if result is None else _EXIT[result[0]]  # None: a document was printed
    try:
        if result is not None:
            _emit(Report(args.command, *result, tolerances), args)
        sys.stdout.flush()
    except BrokenPipeError:  # so that the interpreter's last flush drops the rest
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
