"""Time to verdict: the in-process pipeline and the in-process mirror of
the CLI commands, both calling only steercert's public functions.

Every path returns an *answer*: the status and the fields of the report
that must not change under an optimisation (NS pass/fail, verdict,
nullity, pinned set, LHS decision, key certificate).  Floats are left
out, so a change in the last digits is not an error.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from math import prod

from steercert import (
    assemblages,
    certificates,
    channel_assemblages,
    cli,
    core,
    documents,
    gallery,
    security,
)

TOL = core.Tolerances()
EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2, "INPUT_ERROR": 3}


def pinned_digest(pinned):
    """Pinned positions as ``count:sha256-prefix`` of their sorted list."""
    items = sorted([list(a), list(x)] for a, x in pinned)
    digest = hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]
    return f"{len(items)}:{digest}"


def answer_of_details(status, details):
    """The fields of a report that the expected answers pin down."""
    out = {"status": status}
    for key in ("verdict", "nullity", "lhs", "ns", "ns_pass", "key_setting_pinned",
                "perfect_key"):
        if key in details:
            out[key] = details[key]
    if "pinned" in details:
        out["pinned"] = pinned_digest(details["pinned"])
    if "pinning" in details:
        pin = details["pinning"]
        out["certified"] = pin["certified"]
        out["pinned_positions"] = pin["pinned_positions"]
        out["free_positions"] = pin["free_positions"]
    return out


def count_layers(tracer, system):
    matrix = system.matrix
    tracer.count("certificates.rows", matrix.shape[0])
    tracer.count("certificates.zero_rows", int((~matrix.any(axis=1)).sum()))
    tracer.count("certificates.cols", matrix.shape[1])


def _analysis(tracer, pure, mode):
    """decomposition_analysis, plus the traced split into build and rank."""
    cert = tracer.call("certificates.analysis", certificates.decomposition_analysis,
                       pure, mode, TOL)
    tracer.count("certificates.nullity", cert.nullity)
    if tracer.enabled:
        parent = tracer.last_id()

        def build():
            system = certificates.build_constraint_system(pure, mode)
            count_layers(tracer, system)
            tracer.defer(parent, "core.nullspace", core.nullspace, system.matrix,
                         TOL.rank_rel_tol, peak=True)

        tracer.defer(parent, "certificates.build", build)
    return cert


def _lhs(tracer, pure):
    scen = pure.scenario
    tracer.count("assemblages.lhs_strategies",
                 prod(k ** m for m, k in zip(scen.settings, scen.outcomes)))
    result = tracer.call("assemblages.lhs", assemblages.pure_lhs_decide, pure, TOL)
    if isinstance(result, assemblages.LhsModel):
        tracer.rename_last("assemblages.lhs_model")
        tracer.count("assemblages.lhs_hidden_variables", len(result.weights))
        return {"lhs": True, "hidden_variables": len(result.weights)}
    tracer.rename_last("assemblages.lhs_none")
    return {"lhs": False, "reason": result.reason}


def _emit(tracer, command, status, details):
    """Report emission as the CLI does it: ``to_json`` then sorted dumps."""
    def emit():
        report = cli.Report(command, status, details, {
            "abs_tol": TOL.abs_tol, "rank_rel_tol": TOL.rank_rel_tol,
            "nnls_residual_tol": TOL.nnls_residual_tol})
        return json.dumps(report.to_json(), sort_keys=True)
    return tracer.call("cli.emit", emit)


def _ns_details(tracer, report):
    tracer.count("assemblages.ns_violations", len(report.violations))
    return {"ns": report.ok, "max_violation": report.max_violation,
            "violations": [{"constraint": v.constraint, "magnitude": v.magnitude}
                           for v in report.violations]}


def certify(raw, tracer):
    """One in-process verdict, from document bytes to report JSON."""
    tracer.count("documents.input_bytes", len(raw))
    doc = tracer.call("documents.parse", documents.parse, raw)
    assemblage = doc.payload
    if doc.kind == "realization":
        real = doc.payload
        assemblage = tracer.call("assemblages.realize",
                                 assemblages.assemblage_from_realization,
                                 real.state, real.povms, real.scenario)
    report = tracer.call("assemblages.verify_ns", assemblages.verify_ns, assemblage,
                         TOL.abs_tol)
    details = _ns_details(tracer, report)
    if not report.ok:
        _emit(tracer, "certify", "FAIL", details)
        return answer_of_details("FAIL", details)
    pure = tracer.call("assemblages.canonicalize_pure", assemblages.canonicalize_pure,
                       assemblage, TOL)
    cert = _analysis(tracer, pure, certificates.ConstraintMode.FULL_NS)
    details.update(cert.to_json())
    details.update(_lhs(tracer, pure))
    _emit(tracer, "certify", "PASS", details)
    return answer_of_details("PASS", details)


# --- the CLI commands, in process -------------------------------------------

class InputError(Exception):
    """The command would report INPUT_ERROR (exit 3)."""


def _parse(tracer, raw):
    tracer.count("documents.input_bytes", len(raw))
    try:
        return tracer.call("documents.parse", documents.parse, raw)
    except documents.DocumentError as exc:
        raise InputError(str(exc)) from exc


def pure_assemblage(tracer, doc):
    """The canonical pure assemblage a document carries, as the CLI builds it."""
    if doc.kind == "assemblage":
        assemblage = doc.payload
    elif doc.kind == "channel_assemblage":
        assemblage = tracer.call("channel_assemblages.to_choi",
                                 channel_assemblages.to_choi_assemblage, doc.payload)
    elif doc.kind == "realization":
        real = doc.payload
        if real.channel is None:
            assemblage = tracer.call("assemblages.realize",
                                     assemblages.assemblage_from_realization,
                                     real.state, real.povms, real.scenario)
        else:
            chan = tracer.call("assemblages.realize",
                               channel_assemblages.chanasm_from_realization,
                               real.state, real.povms, real.channel, real.scenario)
            assemblage = tracer.call("channel_assemblages.to_choi",
                                     channel_assemblages.to_choi_assemblage, chan)
    else:
        raise InputError(f"kind '{doc.kind}' carries no assemblage")
    return tracer.call("assemblages.canonicalize_pure", assemblages.canonicalize_pure,
                       assemblage, TOL)


def _verify(tracer, raw, mode):
    doc = _parse(tracer, raw)
    if doc.kind == "assemblage" and mode in ("auto", "ns"):
        report = tracer.call("assemblages.verify_ns", assemblages.verify_ns,
                             doc.payload, TOL.abs_tol)
        details = _ns_details(tracer, report)
    elif doc.kind == "channel_assemblage" and mode in ("auto", "ns"):
        report = tracer.call("channel_assemblages.verify_ns_channel",
                             channel_assemblages.verify_ns_channel, doc.payload,
                             TOL.abs_tol)
        details = _ns_details(tracer, report.assemblage_report)
    elif doc.kind == "channel_assemblage" and mode == "asym-ns":
        report = tracer.call("channel_assemblages.verify_asym_ns",
                             channel_assemblages.verify_asym_ns, doc.payload, TOL.abs_tol)
        details = _ns_details(tracer, report)
    else:  # no case sends a plain channel document
        raise InputError(f"mode '{mode}' is not applicable to kind '{doc.kind}'")
    details.pop("ns")
    return ("PASS" if report.ok else "FAIL"), details


def _extremality(tracer, raw, mode):
    try:
        pure = pure_assemblage(tracer, _parse(tracer, raw))
        mode = (certificates.ConstraintMode.FULL_NS if mode == "full"
                else certificates.ConstraintMode.ASYM_NS)
        cert = _analysis(tracer, pure, mode)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return "PASS", {"verdict": cert.verdict.value, "rank": cert.rank,
                    "nullity": cert.nullity,
                    "pinned": [[list(a), list(x)] for a, x in cert.pinned]}


def _lhs_command(tracer, raw):
    try:
        pure = pure_assemblage(tracer, _parse(tracer, raw))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        return "PASS", _lhs(tracer, pure)
    except core.NnlsDidNotConverge as exc:
        return "INCONCLUSIVE", {"error": str(exc)}


def _security(tracer, raw, x_key=0, y_key=0):
    doc = _parse(tracer, raw)
    if doc.kind != "channel_assemblage":
        raise InputError("expected a channel_assemblage document")
    try:
        choi = tracer.call("channel_assemblages.to_choi",
                           channel_assemblages.to_choi_assemblage, doc.payload)
        pure = tracer.call("assemblages.canonicalize_pure", assemblages.canonicalize_pure,
                           choi, TOL)
        pin = tracer.call("security.pinning", security.eavesdropper_pinning, pure,
                          x_key, y_key, TOL)
        tracer.count("security.pinned", len(pin.pinned_positions))
        tracer.count("security.key_positions",
                     len(pin.pinned_positions) + len(pin.free_positions))
        table = tracer.call("security.correlations", security.correlations, doc.payload,
                            gallery.key_input_state(), gallery.key_measurement())
        key_ok = security.perfect_key_check(table, x_key, y_key, TOL.abs_tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    status = "PASS" if (pin.certified and key_ok) else "FAIL"
    return status, {"pinning": pin.to_json(), "perfect_key": key_ok}


def _reproduce(target):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["--output", "json", "reproduce", target])
    report = json.loads(out.getvalue())
    return report["status"], report["details"]


def run_command(argv, raw, tracer):
    """Run one CLI command in process; returns its answer.

    Exceptions the CLI would not catch propagate, as they would crash the
    CLI.
    """
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    try:
        if command == "verify":
            status, details = _verify(tracer, raw, opts.get("--mode", "auto"))
        elif command == "extremality":
            status, details = _extremality(tracer, raw, opts.get("--mode", "full"))
        elif command == "lhs":
            status, details = _lhs_command(tracer, raw)
        elif command == "security-cert":
            status, details = _security(tracer, raw)
        elif command == "reproduce":
            status, details = _reproduce(argv[1])
        else:
            raise ValueError(f"unknown command {command}")
    except InputError as exc:
        status, details = "INPUT_ERROR", {"error": str(exc)}
    _emit(tracer, command, status, details)
    return answer_of_details(status, details)
