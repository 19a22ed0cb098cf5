"""Mutated documents never crash the CLI.

Hypothesis mutates the bundled fixtures and a small generated assemblage
(``conftest.mutated``): it drops keys, makes rows ragged, writes
``NaN``/``Infinity``, ``true`` where an integer belongs or another wrong
value, widens a ``[re, im]`` pair, puts a negative number on a member's
diagonal, or moves a member outside the scenario.  Every command that reads
a document must answer with an exit code of 0, 1, 2 or 3 and raise nothing,
and an input error names a JSON path of the document.
"""

import contextlib
import io
import json
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import mutated
from steercert import cli

COMMANDS = (("verify",), ("verify", "--mode", "asym-ns"), ("extremality",),
            ("extremality", "--mode", "asym"), ("lhs",), ("security-cert",))
WRONG = st.sampled_from([float("nan"), float("inf"), -float("inf"), True, False, None,
                         "x", "1.5", -1, 0, 1, 3, 2 ** 70, 10 ** 400, 1.5, 2.0, [], {},
                         [[1, 0]], [1, 2, 3]])


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(WRONG), command=st.sampled_from(COMMANDS))
def test_cli_answers_every_mutated_document(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--output", "json", *command, str(path)])
    assert code in (0, 1, 2, 3)
    report = json.loads(out.getvalue())
    error = report["details"].get("error", "")
    if report["status"] == "INPUT_ERROR" and error.startswith("$"):
        location = error.split(": ", 1)[0]
        assert not re.search(r"\.\d", location) and not location.endswith("."), error
