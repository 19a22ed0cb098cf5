import importlib.resources as resources
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steercert
from steercert import cli, documents, gallery
from steercert.core import Op
from steercert.channels import ChoiOp, choi_of_unitary
from steercert.assemblages import Assemblage, Scenario
from steercert.channel_assemblages import (
    ChannelAssemblage,
    local_channel_assemblage,
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


def test_verify_rejects_mismatched_mode(capsys, tmp_path):
    _, _, channel, _ = gallery.bell_cnot_realization()
    path = tmp_path / "channel.json"
    path.write_text(documents.dumps(channel))
    code, report = run_json(capsys, "verify", "--mode", "asym-ns", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"


def test_verify_missing_file(capsys):
    code, report = run_json(capsys, "verify", "no-such-file.json")
    assert code == 3 and report["status"] == "INPUT_ERROR"


def test_verify_fails_on_signaling_assemblage(capsys, tmp_path):
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
    code, report = run_json(capsys, "verify", str(path))
    assert code == 1 and report["status"] == "FAIL"
    assert report["details"]["violations"]


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


def test_security_cert_command(capsys):
    code, report = run_json(capsys, "security-cert",
                            data_path("example1_channel_assemblage.json"))
    assert code == 0
    assert report["details"]["perfect_key"] is True
    assert report["details"]["pinning"]["certified"] is True


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
    if defect == "ragged-member":
        raw = documents.serialize(
            to_choi_assemblage(gallery.bell_cnot_assemblage()))
        raw["payload"]["members"][0]["member"][1].pop()
        return raw
    rho, povms, channel, scen = gallery.bell_cnot_realization()
    raw = documents.serialize(documents.Realization(scen, rho, povms, channel))
    raw["payload"]["povms"][0]["dim"] = 3
    return raw


@pytest.mark.parametrize("command", ["verify", "extremality", "lhs"])
@pytest.mark.parametrize("defect, path", [
    ("ragged-member", "$.payload.members[0].member"),
    ("povm-dim", "$.payload.povms[0].effects[0][0]"),
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


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(steercert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, steercert.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_reports_setting_dependent_totals(capsys, tmp_path):
    l = gallery.bell_cnot_assemblage()
    members = dict(l.members)
    pos = ((0, 0), (1, 0))
    members[pos] = ChoiOp((2,), (2,), Op((2, 2), members[pos].op.data * 1.1))
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
    tables = ((np.array([[0.5, 0.5], [1.0, 0.0]]), np.ones((1, 1)), np.ones((1, 1))),)
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


def test_relaxed_extremality_needs_channel_dims(capsys, tmp_path):
    choi = to_choi_assemblage(gallery.bell_cnot_assemblage())
    flat = Assemblage(Scenario((2, 2), (2, 2), (4,)),
                      {pos: Op((4,), op.data) for pos, op in choi.members.items()})
    path = tmp_path / "flat.json"
    path.write_text(documents.dumps(flat))
    code, report = run_json(capsys, "extremality", "--mode", "asym", str(path))
    assert code == 3 and report["status"] == "INPUT_ERROR"
    assert "(d_out, d_in)" in report["details"]["error"]
