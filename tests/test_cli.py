import importlib.resources as resources
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import local_channel_assemblage, product_realization

from steercert import cli, documents, gallery
from steercert.core import NnlsDidNotConverge
from steercert.channels import KrausChannel, State, choi_of_kraus, choi_of_unitary
from steercert.assemblages import (
    Assemblage,
    Scenario,
    assemblage_from_realization,
    canonicalize_pure,
    lhs_assemblage,
    pure_lhs_decide,
)
from steercert.channel_assemblages import (
    ChannelAssemblage,
    to_choi_assemblage,
)


def data_path(name: str) -> str:
    return str(resources.files("steercert").joinpath("data").joinpath(name))


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, "--output", "json", *argv)
    return code, json.loads(out)


def test_verify_channel_assemblage(capsys):
    code, report = run_json(capsys, "verify",
                            data_path("example1_channel_assemblage.json"))
    assert code == 0
    assert report["status"] == "PASS"
    assert report["details"]["mode"] == "ns-channel"


def test_verify_asym_mode(capsys):
    code, report = run_json(capsys, "verify", "--mode", "asym-ns",
                            data_path("example1_channel_assemblage.json"))
    assert code == 0 and report["details"]["mode"] == "asym-ns"


def test_verify_channel_document(capsys, tmp_path):
    _, _, channel, _ = gallery.bell_cnot_realization()
    path = tmp_path / "channel.json"
    path.write_text(documents.dumps(channel))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    assert report["details"]["cp"] and report["details"]["tp"]


# tp_deviation of the boundary channel is 2**-20 exactly, the flag's value
_BOUNDARY_TOL = "9.5367431640625e-07"


@pytest.mark.parametrize("payload, flags, code, cp, tp", [
    ({"in_dim": 2, "out_dim": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
     (), 0, True, True),
    ({"in_dim": 1, "out_dim": 2, "choi": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]},
     (), 1, False, True),
    ({"in_dim": 1, "out_dim": 1, "choi": [[[1.0000009536743164, 0.0]]]},
     ("--abs-tol", _BOUNDARY_TOL), 0, True, True),
], ids=["identity-kraus", "not-cp", "tp-at-abs-tol"])
def test_verify_cptp_report(capsys, tmp_path, payload, flags, code, cp, tp):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"kind": "channel", "version": 1, "payload": payload}))
    got, report = run_json(capsys, *flags, "verify", str(path))
    details = report["details"]
    assert (got, details["mode"], details["cp"], details["tp"]) == (code, "cptp", cp, tp)
    if flags:
        assert details["tp_deviation"] == float(_BOUNDARY_TOL)


@pytest.mark.parametrize("choi, error", [
    ([[[0, 0]] * 3] * 3, "matrix shape (3, 3) does not match dims (2, 2)"),
    ([[[1 if j >= i else 0, 0] for j in range(4)] for i in range(4)],
     "Choi matrix must be Hermitian"),
], ids=["3x3", "not-hermitian"])
def test_verify_malformed_choi_is_input_error(capsys, tmp_path, choi, error):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"kind": "channel", "version": 1, "payload": {
        "in_dim": 2, "out_dim": 2, "in_dims": [2], "out_dims": [2], "choi": choi}}))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == f"$.payload: {error}"


def test_verify_rejects_mismatched_mode(capsys, tmp_path):
    _, _, channel, _ = gallery.bell_cnot_realization()
    path = tmp_path / "channel.json"
    path.write_text(documents.dumps(channel))
    code, report = run_json(capsys, "verify", "--mode", "asym-ns", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"


@pytest.mark.parametrize("command", ["verify", "choi", "extremality", "lhs",
                                     "security-cert"])
@pytest.mark.parametrize("content", [None, "not JSON"])
def test_verify_missing_file(capsys, tmp_path, command, content):
    path = tmp_path / "document.json"
    if content is not None:
        path.write_text(content)
    code, report = run_json(capsys, command, str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["command"] == command


@pytest.mark.parametrize("parts", [("missing", "cert.json"), ()],
                         ids=["in-missing-directory", "a-directory"])
def test_unwritable_certificate_out_is_input_error(capsys, tmp_path, parts):
    path = str(tmp_path.joinpath(*parts))
    code, report = run_json(capsys, "extremality", "--certificate-out", path,
                            data_path("example1.json"))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert path in report["details"]["error"]


def _signaling_document(tmp_path) -> str:
    raw = documents.serialize(to_choi_assemblage(gallery.bell_cnot_assemblage()))
    # shift weight between two proportional members at settings (1, 0):
    # traces still sum to one, but party A's marginals now signal
    factors = {((0, 0), (1, 0)): 1.5, ((1, 0), (1, 0)): 0.5}
    for entry in raw["payload"]["members"]:
        factor = factors.get((tuple(entry["a"]), tuple(entry["x"])))
        if factor:
            entry["member"] = [[[factor * v[0], factor * v[1]] for v in row]
                               for row in entry["member"]]
    path = tmp_path / "signaling.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_verify_fails_on_signaling_assemblage(capsys, tmp_path):
    code, report = run_json(capsys, "verify", _signaling_document(tmp_path))
    assert code == 1 and report["status"] == "FAIL"
    assert report["details"]["violations"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--mode", "bogus", data_path("example1_channel_assemblage.json")],
     "steercert verify: error: argument --mode: invalid choice: 'bogus'"),
    (["--abs-tol", "abc", "verify", data_path("example1_channel_assemblage.json")],
     "steercert: error: argument --abs-tol: invalid float value: 'abc'"),
    (["reproduce"], "steercert reproduce: error: the following arguments are required: target"),
], ids=["unknown-mode", "tolerance-not-a-number", "no-target"])
def test_usage_error_is_input_error(capsys, argv, message):
    # argparse exits 2, which reads as INCONCLUSIVE; its message stays on stderr
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert message in err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: steercert")


@pytest.mark.parametrize("argv, code", [
    (["schema"], 0),
    (["choi", data_path("example1_channel_assemblage.json")], 0),
    (["verify", data_path("example1_channel_assemblage.json")], 0),
    (["--output", "json", "verify", "signaling"], 1),
])
def test_closed_stdout_keeps_the_exit_code(tmp_path, argv, code):
    if argv[-1] == "signaling":
        argv = [*argv[:-1], _signaling_document(tmp_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)  # no reader, before the child writes a byte
    try:
        out = subprocess.run([sys.executable, "-m", "steercert.cli", *argv], env=env,
                             stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr


def test_extremality_full_and_asym(capsys, tmp_path):
    code, report = run_json(capsys, "extremality", "--mode", "full",
                            data_path("example1.json"))
    assert code == 0 and report["details"]["verdict"] == "UNIQUE_EXTREME"
    cert_path = tmp_path / "cert.json"
    code, report = run_json(capsys, "extremality", "--mode", "asym",
                            "--certificate-out", str(cert_path),
                            data_path("example1.json"))
    assert code == 0 and report["details"]["verdict"] == "NON_UNIQUE"
    cert = json.loads(cert_path.read_text())
    assert cert["nullity"] == report["details"]["nullity"] >= 1


def test_extremality_appendix(capsys):
    code, report = run_json(capsys, "extremality", "--mode", "asym",
                            data_path("appendix.json"))
    assert code == 0 and report["details"]["verdict"] == "UNIQUE_EXTREME"


def test_lhs_command(capsys):
    code, report = run_json(capsys, "lhs", data_path("example1.json"))
    assert code == 0 and report["details"]["lhs"] is False


def test_position_listed_twice_is_input_error(capsys, tmp_path):
    half = [[[0.5, 0.0]]]
    raw = {"kind": "assemblage", "version": 1, "payload": {
        "scenario": {"settings": [1], "outcomes": [2], "trusted_dims": [1]},
        "members": [{"a": [0], "x": [0], "member": half},
                    {"a": [1], "x": [0], "member": half},
                    {"a": [0], "x": [0], "member": [[[0.2, 0.0]]]}]}}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(raw))
    for command in ("verify", "lhs"):
        code, report = run_json(capsys, command, str(path))
        assert code == 3 and report["status"] == "INPUT_ERROR"
        assert report["details"]["error"].startswith("$.payload.members[2]: ")


def test_lhs_reports_reconstruction_residual(capsys, tmp_path, rng):
    real = product_realization(rng, 3, 2, 2, 2)
    path = tmp_path / "product.json"
    path.write_text(documents.dumps(real))
    code, report = run_json(capsys, "lhs", str(path))
    details = report["details"]
    assert code == 0 and details["lhs"] is True
    assert len(details["weights"]) == details["hidden_variables"]
    assert 0 <= details["reconstruction_residual"] < 1e-12
    # the residual is that of the model against the input's members
    s = assemblage_from_realization(real.state, real.povms, real.scenario)
    model = pure_lhs_decide(canonicalize_pure(s))
    rebuilt = lhs_assemblage(model, s.scenario).members
    assert details["reconstruction_residual"] == float(np.max(np.abs(rebuilt - s.members)))
    _, report = run_json(capsys, "lhs", data_path("example1.json"))
    assert "reconstruction_residual" not in report["details"]


def test_security_cert_command(capsys):
    code, report = run_json(capsys, "security-cert",
                            data_path("example1_channel_assemblage.json"))
    assert code == 0
    assert report["details"]["perfect_key"] is True
    assert report["details"]["pinning"]["certified"] is True


def _key_member_lowered(tmp_path, eps: float) -> str:
    """The Bell-CNOT channel assemblage with ``eps |u><u|`` taken from the
    member (0, 0)|(0, 0), ``u`` the unit part of |1>_out|0>_in orthogonal
    to the member's principal ket."""
    raw = json.loads(open(data_path("example1_channel_assemblage.json")).read())
    member = raw["payload"]["members"][0]
    assert (member["a"], member["x"]) == ([0, 0], [0, 0])
    choi = np.array([[complex(*z) for z in row] for row in member["choi"]])
    ket = np.linalg.eigh(choi)[1][:, -1]
    u = np.eye(4)[2] - ket * ket.conj()[2]
    u /= np.linalg.norm(u)
    choi = choi - eps * np.outer(u, u.conj())
    member["choi"] = [[[z.real, z.imag] for z in row] for row in choi]
    path = tmp_path / "lowered.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_security_cert_judges_the_table_at_abs_tol(capsys, tmp_path):
    flags = ("--abs-tol", "1e-5", "--rank-tol", "1e-4", "--nnls-tol", "1e-4")
    # pinning accepts the member at 1e-5, and so does the table it gives
    code, report = run_json(capsys, *flags, "security-cert",
                            _key_member_lowered(tmp_path, 3e-7))
    assert code == 0 and report["details"]["perfect_key"] is True
    code, report = run_json(capsys, *flags, "security-cert",
                            _key_member_lowered(tmp_path, 9e-6))
    assert code == 3
    assert report["details"]["error"] == "$.payload: probabilities must be nonnegative"


def test_security_cert_declines_other_setting(capsys):
    code, report = run_json(capsys, "security-cert", "--x-key", "1",
                            data_path("example1_channel_assemblage.json"))
    assert code == 1 and report["status"] == "FAIL"


def test_reproduce_targets(capsys):
    for target in ("example1", "asym-nonextremal", "appendix", "key"):
        code, report = run_json(capsys, "reproduce", target)
        assert code == 0, target
        assert report["status"] == "PASS"


def test_choi_command_roundtrips(capsys):
    code, out = run(capsys, "choi", data_path("example1_channel_assemblage.json"))
    assert code == 0
    doc = documents.parse(out)
    assert doc.kind == "assemblage"


def test_schema_command(capsys):
    code, out = run(capsys, "schema")
    assert code == 0
    schema = json.loads(out)
    assert "channel_assemblage" in schema["$defs"]


def test_reports_are_byte_deterministic(capsys):
    _, first = run(capsys, "--output", "json", "verify",
                   data_path("example1_channel_assemblage.json"))
    _, second = run(capsys, "--output", "json", "verify",
                    data_path("example1_channel_assemblage.json"))
    assert first == second


def test_text_output(capsys):
    code, out = run(capsys, "verify",
                    data_path("example1_channel_assemblage.json"))
    assert code == 0 and out.startswith("[PASS] verify")


def test_custom_tolerance_is_reported(capsys):
    code, report = run_json(capsys, "--abs-tol", "1e-6", "verify",
                            data_path("example1_channel_assemblage.json"))
    assert code == 0
    assert report["tolerances"]["abs_tol"] == pytest.approx(1e-6)


def _malformed_document(defect: str) -> dict:
    if defect == "povm-entry":  # two faults, 1 and 0: the first is named
        return {"kind": "povm", "version": 1,
                "payload": {"dim": 2, "effects": [[[[1, 0]]]]}}
    if defect in ("ragged-member", "string-index", "no-kind"):
        raw = documents.serialize(
            to_choi_assemblage(gallery.bell_cnot_assemblage()))
        if defect == "ragged-member":
            raw["payload"]["members"][0]["member"][1].pop()
        elif defect == "string-index":
            raw["payload"]["members"][0]["a"][0] = "0"
        else:
            del raw["kind"]
        return raw
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    raw = documents.serialize(documents.Realization(scen, rho, povms, channel))
    raw["payload"]["povms"][0]["dim"] = 3
    return raw


@pytest.mark.parametrize("command", ["verify", "extremality", "lhs"])
@pytest.mark.parametrize("defect, path", [
    ("ragged-member", "$.payload.members[0].member"),
    ("povm-dim", "$.payload.povms[0].effects[0][0]"),
    ("povm-entry", "$.payload.effects[0][0][0][0]"),
    ("string-index", "$.payload.members[0].a[0]"),
    ("no-kind", "$"),
])
def test_malformed_payload_is_input_error(capsys, tmp_path, command, defect,
                                          path):
    doc_path = tmp_path / f"{defect}.json"
    doc_path.write_text(json.dumps(_malformed_document(defect)))
    code, report = run_json(capsys, command, str(doc_path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"].startswith(path + ": ")


def test_extremality_reports_rank_margin(capsys):
    code, report = run_json(capsys, "extremality", "--mode", "asym",
                            data_path("example1.json"))
    kept, dropped = report["details"]["rank_margin"]
    assert code == 0
    assert kept > report["tolerances"]["rank_rel_tol"] >= dropped
    pinned_reach, free_reach = report["details"]["pin_margin"]
    assert pinned_reach < report["tolerances"]["abs_tol"] < free_reach


@pytest.mark.parametrize("scenario", [
    {"settings": [1000000, 1000000], "outcomes": [2, 2], "trusted_dims": [2]},
    {"settings": [2, 2], "outcomes": [2, 2], "trusted_dims": [10000000]},
])
def test_oversized_scenario_is_input_error(capsys, tmp_path, scenario):
    # Either member array is larger than a 64-bit address space holds, so
    # asking for it allocates nothing whatever the overcommit setting.
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps({"kind": "assemblage", "version": 1,
                                "payload": {"scenario": scenario, "members": []}}))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"].startswith("$.payload.scenario: ")


def test_verify_reports_setting_dependent_totals(capsys, tmp_path):
    l = gallery.bell_cnot_assemblage()
    members = l.members.copy()
    members[l.scenario.index((0, 0), (1, 0))] *= 1.1
    path = tmp_path / "totals.json"
    path.write_text(documents.dumps(ChannelAssemblage(l.scenario, members)))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 1 and report["status"] == "FAIL"
    names = [v["constraint"] for v in report["details"]["violations"]]
    assert "total trace at x=(1, 0)" in names
    assert "total at x=(0, 0) vs x=(1, 0)" in names


def test_verify_relaxed_mode_rejects_three_parties(capsys, tmp_path):
    scen = Scenario((2, 1, 1), (2, 1, 1), (2, 2))
    identity = choi_of_unitary(np.eye(2))
    tables = (np.array([[[0.5, 0.5], [1.0, 0.0]]]), np.ones((1, 1, 1)), np.ones((1, 1, 1)))
    path = tmp_path / "three.json"
    path.write_text(documents.dumps(
        local_channel_assemblage(tables, (identity,), scen)))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0 and report["status"] == "PASS"
    code, report = run_json(capsys, "verify", "--mode", "asym-ns", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert "two parties" in report["details"]["error"]


@pytest.mark.parametrize("flag", ["--x-key", "--y-key"])
@pytest.mark.parametrize("value", ["-1", "2"])
def test_security_cert_rejects_unknown_key_setting(capsys, flag, value):
    code, report = run_json(capsys, "security-cert", flag, value,
                            data_path("example1_channel_assemblage.json"))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert flag[2:].replace("-", "_") in report["details"]["error"]


@pytest.mark.parametrize("flag, key", [("--abs-tol", "abs_tol"),
                                       ("--rank-tol", "rank_rel_tol"),
                                       ("--nnls-tol", "nnls_residual_tol")])
@pytest.mark.parametrize("value", ["0", "-1e-9"])
def test_non_positive_tolerance_is_input_error(capsys, flag, key, value):
    code, report = run_json(capsys, f"{flag}={value}", "verify",
                            data_path("example1_channel_assemblage.json"))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["command"] == "verify"
    assert report["tolerances"][key] == float(value)
    assert key in report["details"]["error"]


@pytest.mark.parametrize("flag, key", [("--abs-tol", "abs_tol"),
                                       ("--rank-tol", "rank_rel_tol"),
                                       ("--nnls-tol", "nnls_residual_tol")])
@pytest.mark.parametrize("value", ["inf", "1e400"])
def test_non_finite_tolerance_is_input_error(capsys, flag, key, value):
    code, out = run(capsys, "--output", "json", flag, value, "verify",
                    data_path("example1_channel_assemblage.json"))
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["tolerances"][key] == "inf"
    assert key in report["details"]["error"]


@pytest.mark.parametrize("value", ["1", "2"])
def test_rank_tolerance_of_one_or_more_is_input_error(capsys, value):
    # at a relative threshold of 1 every singular value counts as zero
    code, report = run_json(capsys, "--rank-tol", value, "extremality",
                            data_path("example1.json"))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == "rank_rel_tol must be below 1"


@pytest.mark.parametrize("command", ["extremality", "verify"])
def test_rank_tolerance_below_float_epsilon_is_input_error(capsys, command):
    # below epsilon, rounding alone sets a rank: at 1e-17 a rank-one member
    # of this valid document was blamed for rank 3
    argv = ("extremality", "--mode", "asym") if command == "extremality" else ("verify",)
    code, report = run_json(capsys, "--rank-tol", "1e-17", *argv,
                            data_path("example1_channel_assemblage.json"))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"].startswith("rank_rel_tol must be at least")
    code, _ = run_json(capsys, "--rank-tol", "5e-16", *argv,
                       data_path("example1_channel_assemblage.json"))
    assert code == 0


def test_relaxed_extremality_needs_channel_dims(capsys, tmp_path):
    choi = to_choi_assemblage(gallery.bell_cnot_assemblage())
    flat = Assemblage(Scenario((2, 2), (2, 2), (4,)), choi.members)
    path = tmp_path / "flat.json"
    path.write_text(documents.dumps(flat))
    code, report = run_json(capsys, "extremality", "--mode", "asym", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert "(d_out, d_in)" in report["details"]["error"]


def _total_trace_off_document(tmp_path) -> str:
    """The Bell-CNOT Choi assemblage with one member at settings (1, 0)
    scaled so that the total there has trace 1 + 1e-7."""
    raw = documents.serialize(to_choi_assemblage(gallery.bell_cnot_assemblage()))
    for entry in raw["payload"]["members"]:
        if (tuple(entry["a"]), tuple(entry["x"])) == ((0, 0), (1, 0)):
            trace = sum(entry["member"][i][i][0] for i in range(len(entry["member"])))
            factor = 1 + 1e-7 / trace
            entry["member"] = [[[factor * v[0], factor * v[1]] for v in row]
                               for row in entry["member"]]
    path = tmp_path / "trace-off.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_total_trace_is_checked_against_abs_tol(capsys, tmp_path):
    path = _total_trace_off_document(tmp_path)
    code, report = run_json(capsys, "verify", path)
    assert code == 1 and report["status"] == "FAIL"
    names = [v["constraint"] for v in report["details"]["violations"]]
    assert "total trace at x=(1, 0)" in names
    code, report = run_json(capsys, "--abs-tol", "1e-5", "verify", path)
    assert code == 0 and report["status"] == "PASS"


@pytest.mark.parametrize("command", ["extremality", "lhs"])
def test_total_trace_off_document_is_not_a_crash(capsys, tmp_path, command):
    path = _total_trace_off_document(tmp_path)
    code = cli.main(["--output", "json", command, path])
    out, err = capsys.readouterr()
    assert code in (0, 1, 3)
    assert json.loads(out)["command"] == command
    assert "Traceback" not in err


def _output_trace_off_document(tmp_path) -> str:
    """A channel assemblage whose only fault is its output trace: the total
    is J = |0><0| (x) diag(.7, .3) at every setting, its |00> part spread
    over the first party's outcome 0 and its |01> part over outcome 1."""
    scen = Scenario((2, 2), (2, 2), (2, 2))
    members = [np.diag([0.35, 0, 0, 0]) if a[0] == 0 else np.diag([0, 0.15, 0, 0])
               for a, _ in scen.positions()]
    path = tmp_path / "output-trace-off.json"
    path.write_text(documents.dumps(ChannelAssemblage(scen, members)))
    return str(path)


def test_output_trace_fault_is_a_named_violation(capsys, tmp_path):
    code, report = run_json(capsys, "verify", _output_trace_off_document(tmp_path))
    assert code == 1 and report["status"] == "FAIL"
    details = report["details"]
    assert [v["constraint"] for v in details["violations"]] == [
        "output trace of total vs maximally mixed input"]
    assert details["max_violation"] == details["trace_condition_deviation"] == pytest.approx(0.2)


def test_output_trace_fault_has_no_full_certificate(capsys, tmp_path):
    # the assemblage is no-signaling but no channel assemblage, so it is not
    # in the set that a full certificate of a channel document ranks
    code, report = run_json(capsys, "extremality", "--mode", "full",
                            _output_trace_off_document(tmp_path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == (
        "$.payload: reference coefficients do not satisfy the system: "
        "'output trace of total vs maximally mixed input' deviates by 0.2")


def _negative_diagonal_document(tmp_path, kind: str, value: float) -> str:
    """The Bell-CNOT Choi members with ``value`` on a zero diagonal entry
    of the member (0, 0)|(0, 0), as an ``assemblage`` or a
    ``channel_assemblage`` document."""
    l = gallery.bell_cnot_assemblage()
    raw = documents.serialize(l if kind == "channel_assemblage" else to_choi_assemblage(l))
    key = "choi" if kind == "channel_assemblage" else "member"
    for entry in raw["payload"]["members"]:
        if (tuple(entry["a"]), tuple(entry["x"])) == ((0, 0), (0, 0)):
            entry[key][1][1] = [value, 0.0]
    path = tmp_path / f"{kind}-negative.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("kind", ["assemblage", "channel_assemblage"])
def test_verify_reports_a_member_that_is_not_psd(capsys, tmp_path, kind):
    path = _negative_diagonal_document(tmp_path, kind, -1e-7)
    code, report = run_json(capsys, "verify", path)
    assert code == 1 and report["status"] == "FAIL"
    magnitudes = {v["constraint"]: v["magnitude"] for v in report["details"]["violations"]}
    assert magnitudes["member (0, 0)|(0, 0) PSD"] == pytest.approx(1e-7)
    code, report = run_json(capsys, "--abs-tol", "1e-5", "verify", path)
    assert code == 0 and report["status"] == "PASS"


@pytest.mark.parametrize("command", ["extremality", "lhs", "security-cert"])
def test_member_that_is_not_psd_is_input_error(capsys, tmp_path, command):
    path = _negative_diagonal_document(tmp_path, "channel_assemblage", -0.1)
    code, report = run_json(capsys, command, path)
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert "member (0, 0)|(0, 0) is not PSD" in report["details"]["error"]


@pytest.mark.parametrize("command", ["extremality", "lhs"])
@pytest.mark.parametrize("kind", ["assemblage", "channel_assemblage"])
@pytest.mark.parametrize("fault", ["maximally mixed", "not PSD"])
def test_rejected_member_is_located_at_its_entry(capsys, tmp_path, command, kind, fault):
    # the channel fixture with one member replaced, given as a channel
    # assemblage or as the assemblage of its Choi matrices
    raw = json.loads(open(data_path("example1_channel_assemblage.json")).read())
    if kind == "assemblage":
        raw["kind"] = "assemblage"
        for entry in raw["payload"]["members"]:
            entry["member"] = entry.pop("choi")
    key = "choi" if kind == "channel_assemblage" else "member"
    j = 12  # the member (1, 1)|(1, 0)
    entry = raw["payload"]["members"][j]
    assert (entry["a"], entry["x"]) == ([1, 1], [1, 0])
    trace = sum(entry[key][i][i][0] for i in range(4))
    mixed = np.eye(4) * trace / 4
    if fault == "not PSD":
        mixed[3, 3] = -0.1
    entry[key] = [[[float(v), 0.0] for v in row] for row in mixed]
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(raw))
    code, report = run_json(capsys, command, str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    error = "has rank 4 > 1" if fault == "maximally mixed" else "is not PSD"
    assert report["details"]["error"] == f"$.payload.members[12]: member (1, 1)|(1, 0) {error}"


def _empty_document(tmp_path, kind: str) -> str:
    """A Bell-CNOT scenario document of ``kind`` with no member."""
    raw = documents.serialize(gallery.bell_cnot_assemblage())
    raw["kind"] = kind
    raw["payload"]["members"] = []
    path = tmp_path / f"{kind}-empty.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("command, kind", [("extremality", "assemblage"),
                                           ("lhs", "assemblage"),
                                           ("security-cert", "channel_assemblage")])
def test_empty_support_is_input_error(capsys, tmp_path, command, kind):
    code, report = run_json(capsys, command, _empty_document(tmp_path, kind))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == "$.payload.members: no member has trace above abs_tol"


@pytest.mark.parametrize("kind", ["assemblage", "channel_assemblage"])
def test_verify_reports_the_total_trace_of_an_empty_document(capsys, tmp_path, kind):
    code, report = run_json(capsys, "verify", _empty_document(tmp_path, kind))
    assert code == 1 and report["status"] == "FAIL"
    names = [v["constraint"] for v in report["details"]["violations"]]
    assert "total trace at x=(0, 0)" in names


def _realization_document(defect: str) -> dict:
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    raw = documents.serialize(documents.Realization(scen, rho, povms, channel))
    if defect == "state-without-matrix":
        del raw["payload"]["state"]["matrix"]
    elif defect == "oversized-entry":  # an integer beyond the float range
        raw["payload"]["state"]["matrix"][0][0] = [10 ** 400, 0]
    elif defect == "povm-with-one-setting":
        raw["payload"]["povms"][0]["effects"].pop()
    elif defect == "povm-with-a-short-setting":  # one effect, the identity
        raw["payload"]["povms"][0]["effects"][1] = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]
    elif defect == "povm-with-a-long-setting":  # a third effect, zero
        raw["payload"]["povms"][0]["effects"][1].append([[[0, 0], [0, 0]]] * 2)
    elif defect == "povm-missing":
        raw["payload"]["povms"].pop()
    elif defect == "povm-extra":
        raw["payload"]["povms"].append(raw["payload"]["povms"][0])
    elif defect == "state-dims-2-3":
        raw["payload"]["state"]["dims"] = [2, 3]
    elif defect == "state-dims-empty":
        raw["payload"]["state"]["dims"] = []
    elif defect == "scenario-with-one-outcome-count":
        raw["payload"]["scenario"]["outcomes"].pop()
    elif defect == "channel-in-dim-4":  # its in_dims still multiply to 8
        raw["payload"]["channel"]["in_dim"] = 4
    elif defect == "channel-of-trace-2":  # twice a CPTP channel's Choi matrix
        raw["payload"]["channel"]["choi"] = [[[2 * re, 2 * im] for re, im in row]
                                             for row in raw["payload"]["channel"]["choi"]]
    elif defect in _MALFORMED_ENTRIES:
        raw["payload"]["state"]["matrix"][0][0] = _MALFORMED_ENTRIES[defect][0]
    return raw


# Each entry with the error a state document gives for it, after the path
# of the entry; of two faults, the first is named.
_MALFORMED_ENTRIES = {"one-number-entry": ([0.5], ": [0.5] is too short"),
                      "empty-entry": ([], ": [] is too short"),
                      "string-entry": ("0.5", ": '0.5' is not of type 'array'"),
                      "boolean-entry": ([False, False],
                                        "[0]: False is not of type 'number'")}


_REALIZATION_DEFECTS = [
    ("state-without-matrix", "$.payload.state: 'matrix' is a required property"),
    ("oversized-entry", "$.payload.state.matrix[0][0]: entry out of range"),
    ("povm-with-one-setting",
     "$.payload.povms[0]: POVM of party 0 is too small for the scenario"),
    ("povm-with-a-short-setting", "$.payload.povms[0].effects[1]: setting 1 has a "
     "different number of effects (1) than setting 0 (2)"),
    ("povm-with-a-long-setting", "$.payload.povms[0].effects[1]: setting 1 has a "
     "different number of effects (3) than setting 0 (2)"),
    ("povm-missing", "$.payload.povms: expected one POVM per party (2), got 1"),
    ("povm-extra", "$.payload.povms: expected one POVM per party (2), got 3"),
    ("state-dims-2-3", "$.payload.state: matrix shape (4, 4) does not match dims (2, 3)"),
    ("state-dims-empty",
     "$.payload.state: dims must be a nonempty list of positive integers"),
    *((defect, f"$.payload.state.matrix[0][0]{error}")
      for defect, (_, error) in _MALFORMED_ENTRIES.items()),
    ("scenario-with-one-outcome-count",
     "$.payload.scenario: settings and outcomes must have equal, nonzero length"),
    ("channel-in-dim-4", "$.payload.channel: dims products disagree with in_dim/out_dim"),
]


@pytest.mark.parametrize("defect, error, command", [
    *((defect, error, command) for defect, error in _REALIZATION_DEFECTS
      for command in ("verify", "extremality", "lhs")),
    # verify refuses a realization at $.kind before it builds the channel
    *(("channel-of-trace-2", "$.payload: realization channel must be CPTP", command)
      for command in ("extremality", "lhs")),
])
def test_malformed_realization_is_input_error(capsys, tmp_path, defect, error, command):
    path = tmp_path / f"{defect}.json"
    path.write_text(json.dumps(_realization_document(defect)))
    code, report = run_json(capsys, command, str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == error


def _perturbed_key_state():
    return State((2,), np.diag([1 - 1e-6, 1e-6]))


# Per reproduce target, a gallery function and a replacement that moves
# what the target compares by about 1e-6.
_PERTURBED_GALLERY = {
    "example1": ("bell_cnot_expected_members", lambda f: lambda: {
        pos: m * (1 + 1e-6) for pos, m in f().items()}),
    "asym-nonextremal": ("nonextremal_split_coefficients", lambda f: lambda: tuple(
        {pos: c * (1 + 1e-6) for pos, c in table.items()} for table in f())),
    "appendix": ("tilted_cnot_expected_kets", lambda f: lambda: {
        pos: k * (1 + 1e-6) for pos, k in f().items()}),
    "key": ("key_input_state", lambda f: _perturbed_key_state),
}


@pytest.mark.parametrize("target", sorted(_PERTURBED_GALLERY))
def test_reproduce_thresholds_follow_abs_tol(capsys, monkeypatch, target):
    name, replace = _PERTURBED_GALLERY[target]
    monkeypatch.setattr(gallery, name, replace(getattr(gallery, name)))
    code, report = run_json(capsys, "reproduce", target)
    assert code == 1 and report["status"] == "FAIL"
    code, report = run_json(capsys, "--abs-tol", "1e-5", "reproduce", target)
    assert code == 0 and report["status"] == "PASS"


def test_reproduce_below_rounding_is_input_error(capsys):
    # at abs_tol 1e-18 the rounding of a rank-one member reads as not PSD
    code, report = run_json(capsys, "--abs-tol", "1e-18", "reproduce", "appendix")
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert "is not PSD" in report["details"]["error"]


def test_choi_of_a_channel_document_parses_back(capsys, tmp_path):
    _, _, channel, _ = gallery.bell_cnot_realization()
    path = tmp_path / "channel.json"
    path.write_text(documents.dumps(channel))
    code, out = run(capsys, "choi", str(path))
    assert code == 0
    doc = documents.parse(out)
    assert doc.kind == "channel"
    np.testing.assert_array_equal(doc.payload.matrix, channel.matrix)


def _noisy_pr_box(tmp_path) -> str:
    """The PR box mixed with white noise: p(ab|xy) = (1 +- 0.9) / 4, + where
    a xor b = x y; no-signaling, with no LHS model (trusted dim 1)."""
    members = [{"a": [a, b], "x": [x, y],
                "member": [[[(1 + (0.9 if a ^ b == x * y else -0.9)) / 4, 0]]]}
               for x in (0, 1) for y in (0, 1) for a in (0, 1) for b in (0, 1)]
    path = tmp_path / "pr-box.json"
    path.write_text(json.dumps({"kind": "assemblage", "version": 1, "payload": {
        "scenario": {"settings": [2, 2], "outcomes": [2, 2], "trusted_dims": [1]},
        "members": members}}))
    return str(path)


def test_lhs_reports_an_infeasible_weight_system(capsys, tmp_path):
    code, report = run_json(capsys, "lhs", _noisy_pr_box(tmp_path))
    assert code == 0 and report["details"]["lhs"] is False
    assert "infeasible" in report["details"]["reason"]
    assert report["details"]["residual"] == pytest.approx(0.358, abs=1e-3)


def test_lhs_without_nnls_convergence_is_inconclusive(capsys, tmp_path, monkeypatch):
    def stuck(m, b):
        raise NnlsDidNotConverge("iteration cap reached")
    monkeypatch.setattr("steercert.assemblages.nnls", stuck)
    code, report = run_json(capsys, "lhs", _noisy_pr_box(tmp_path))
    assert code == 2 and report["status"] == "INCONCLUSIVE"
    assert report["details"]["error"] == "iteration cap reached"


@pytest.mark.parametrize("command", ["extremality", "lhs"])
@pytest.mark.parametrize("part, key, dims, error", [
    ("channel", "in_dims", [4, 2], "channel input dims must be untrusted dims + (d_in,)"),
    ("channel", "out_dims", [2, 4], "channel output dims must be untrusted dims + (d_out,)"),
    ("state", "dims", [4], "channel input dims must be untrusted dims + (d_in,)"),
])
def test_realization_channel_dims_must_match(capsys, tmp_path, command, part, key, dims,
                                             error):
    raw = _realization_document("")
    raw["payload"][part][key] = dims  # same product, another split
    path = tmp_path / "channel-dims.json"
    path.write_text(json.dumps(raw))
    code, report = run_json(capsys, command, str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == "$.payload: " + error


def test_realization_state_dims_must_match(capsys, tmp_path, rng):
    raw = documents.serialize(product_realization(rng, 3, 2, 2, 2))
    raw["payload"]["state"]["dims"] = [4, 2, 2]  # same product, another split
    path = tmp_path / "state-dims.json"
    path.write_text(json.dumps(raw))
    code, report = run_json(capsys, "lhs", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == ("$.payload: state dims (4, 2, 2) do not match "
                                          "scenario dims (2, 2, 2, 2)")


def _scenario_fault_document(fault: str) -> str:
    """An assemblage whose scenario has ``fault``: a channel assemblage
    with a third party of one setting and one outcome, with ternary
    outcomes for party 0, or with a qutrit as the trusted output or
    input, or a plain assemblage on one trusted qubit."""
    if fault == "three parties":  # the same members, in the same order
        l = gallery.bell_cnot_assemblage()
        return documents.dumps(ChannelAssemblage(
            Scenario((2, 2, 1), (2, 2, 1), (2, 2)), l.members))
    if fault == "one trusted dim":  # every member |0><0| / 4
        members = np.diag([0.25, 0.0])[None].repeat(16, axis=0)
        return documents.dumps(Assemblage(Scenario((2, 2), (2, 2), (2,)), members))
    tables = (np.eye(2)[[[0, 1]]], np.eye(2)[[[0, 1]]])  # deterministic binary responses
    if fault == "qutrit output":  # a qubit embedded in a qutrit
        isometry = KrausChannel(2, 3, [np.eye(3)[:, :2]])
        return documents.dumps(local_channel_assemblage(
            tables, [choi_of_kraus(isometry)], Scenario((2, 2), (2, 2), (3, 2))))
    if fault == "qutrit input":  # a qutrit measured, its outcome sent as a qubit
        measure = KrausChannel(3, 2, [np.outer(np.eye(2)[i % 2], np.eye(3)[i])
                                      for i in range(3)])
        return documents.dumps(local_channel_assemblage(
            tables, [choi_of_kraus(measure)], Scenario((2, 2), (2, 2), (2, 3))))
    scen = Scenario((2, 2), (3, 2), (2, 2))
    tables = (np.eye(3)[[[0, 0]]], np.eye(2)[[[0, 1]]])  # deterministic responses
    return documents.dumps(local_channel_assemblage(
        tables, [choi_of_unitary(np.eye(2))], scen))


@pytest.mark.parametrize("fault, argv, error", [
    ("three parties", ("verify", "--mode", "asym-ns"),
     "the relaxed A|BC family is defined for exactly two parties"),
    ("three parties", ("extremality", "--mode", "asym"),
     "the relaxed A|BC family is defined for exactly two parties"),
    ("three parties", ("security-cert",), "pinning certificate requires two untrusted parties"),
    ("ternary outcomes", ("security-cert",),
     "perfect key check requires binary outcomes throughout"),
    ("qutrit output", ("security-cert",),
     "trusted output dim 3 is not the key measurement's dim 2"),
    ("qutrit input", ("security-cert",), "trusted input dim 3 is not the key input state's dim 2"),
    ("one trusted dim", ("extremality", "--mode", "asym"),
     "a channel family needs trusted dims (d_out, d_in)"),
])
def test_scenario_faults_are_located_at_the_scenario(capsys, tmp_path, fault, argv, error):
    path = tmp_path / "scenario.json"
    path.write_text(_scenario_fault_document(fault))
    code, report = run_json(capsys, argv[0], str(path), *argv[1:])
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == "$.payload.scenario: " + error


def test_member_without_its_matrix_is_input_error(capsys, tmp_path):
    with open(_noisy_pr_box(tmp_path)) as fh:
        raw = json.load(fh)
    del raw["payload"]["members"][5]["member"]
    path = tmp_path / "no-matrix.json"
    path.write_text(json.dumps(raw))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == "$.payload.members[5]: missing 'member' matrix"


def test_signaling_assemblage_is_located_at_the_payload(capsys, tmp_path):
    # party 1 answers 0 whenever party 0's setting is 1: the member traces
    # signal, so they cannot solve the system a certificate is built from
    scen = Scenario((2, 2), (2, 2), (2,))
    members = [(0.5 * (a[1] == 0) if x[0] else 0.25) * np.diag([1.0, 0.0])
               for a, x in scen.positions()]
    path = tmp_path / "signaling.json"
    path.write_text(documents.dumps(Assemblage(scen, np.array(members))))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 1
    worst = max(report["details"]["violations"], key=lambda v: v["magnitude"])
    assert worst["magnitude"] == 0.5
    code, report = run_json(capsys, "extremality", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == (
        "$.payload: reference coefficients do not satisfy the system: "
        f"'{worst['constraint']}' deviates by 0.5")


@pytest.mark.parametrize("command", ["extremality", "lhs"])
def test_member_of_a_realization_is_located_at_the_payload(capsys, tmp_path, command):
    # a maximally mixed state makes the computed members mixed; they are
    # listed nowhere in the document, so the fault sits at the payload
    raw = json.loads(open(data_path("example1.json")).read())
    d = len(raw["payload"]["state"]["matrix"])
    raw["payload"]["state"]["matrix"] = [[[1 / d if i == j else 0.0, 0.0] for j in range(d)]
                                         for i in range(d)]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(raw))
    code, report = run_json(capsys, command, str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == "$.payload: member (0, 0)|(0, 1) has rank 2 > 1"


def _kind_documents(tmp_path) -> dict:
    """A document of each kind the kind faults below need."""
    _, _, channel, _ = gallery.bell_cnot_realization()
    paths = {"realization": data_path("example1.json"),
             "channel_assemblage": data_path("example1_channel_assemblage.json")}
    for kind, payload in (("channel", channel),
                          ("assemblage", to_choi_assemblage(gallery.bell_cnot_assemblage()))):
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(documents.dumps(payload))
    return {kind: str(path) for kind, path in paths.items()}


@pytest.mark.parametrize("kind, path", [("realization", "$.payload"),
                                        ("assemblage", "$.payload.members"),
                                        ("channel_assemblage", "$.payload.members")])
def test_no_member_above_abs_tol_is_located(capsys, tmp_path, kind, path):
    # every member's trace sits below an absolute tolerance of 1e300
    code, report = run_json(capsys, "--abs-tol", "1e300", "extremality",
                            _kind_documents(tmp_path)[kind])
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == f"{path}: no member has trace above abs_tol"


@pytest.mark.parametrize("argv, kind, error", [
    (("verify",), "realization", "mode 'auto' is not applicable to kind 'realization'"),
    (("verify", "--mode", "cptp"), "assemblage",
     "mode 'cptp' is not applicable to kind 'assemblage'"),
    (("verify", "--mode", "asym-ns"), "channel",
     "mode 'asym-ns' is not applicable to kind 'channel'"),
    (("choi",), "assemblage", "kind 'assemblage' has no Choi form"),
    (("choi",), "realization", "kind 'realization' has no Choi form"),
    (("security-cert",), "assemblage", "expected a channel_assemblage document"),
    (("security-cert",), "realization", "expected a channel_assemblage document"),
    (("extremality",), "channel", "kind 'channel' carries no assemblage"),
    (("lhs",), "channel", "kind 'channel' carries no assemblage"),
])
def test_kind_that_a_command_does_not_take_is_located_at_the_kind(capsys, tmp_path, argv,
                                                                   kind, error):
    path = _kind_documents(tmp_path)[kind]
    code, report = run_json(capsys, *argv, path)
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert report["details"]["error"] == f"$.kind: {error}"
