"""What the package imports.

Every name that a module imports is used in that module: the modules of
the package, the test modules and the demos alike.  No linter ships with
the toolchain, so this scans the syntax trees directly:
an imported name counts as used when it appears as a plain name anywhere
in the module (attribute access starts from one).

The CLI and the parsing of documents leave scipy and jsonschema unloaded,
a rejected document included: the document walk names its own faults.
``steercert extremality`` leaves scipy unloaded too: its rank path is
numpy alone.  So does ``steercert lhs`` on a product realization: each
party's weights come in closed form, and scipy is imported only for the
joint NNLS of a box whose per-party candidate fails.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import product_realization

import steercert
from steercert import documents

PACKAGE = Path(steercert.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import prod, sqrt\nimport numpy.linalg\nsqrt(numpy.pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "prod")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name if p.parent == PACKAGE
                         else f"{p.parent.name}/{p.name}")
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PROBE = """
import importlib.resources as resources, json, sys
import steercert.cli
from steercert import documents
data = resources.files("steercert").joinpath("data")
for name in ("appendix.json", "example1.json", "example1_channel_assemblage.json"):
    documents.parse(data.joinpath(name).read_bytes())
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"jsonschema", "scipy"})
raw = json.loads(data.joinpath("example1.json").read_text())
del raw["payload"]["state"]["matrix"]
try:
    documents.parse(raw)
except documents.DocumentError as exc:
    print(json.dumps({"loaded": loaded, "error": str(exc),
                      "jsonschema": "jsonschema" in sys.modules}))
"""


def run_probe(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(steercert.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_parsing_documents_leaves_jsonschema_and_scipy_unloaded():
    assert json.loads(run_probe(PROBE)) == {
        "loaded": [], "jsonschema": False,
        "error": "$.payload.state: 'matrix' is a required property"}


EXTREMALITY_PROBE = """
import importlib.resources as resources, json, sys
from steercert import cli
path = str(resources.files("steercert").joinpath("data", "example1.json"))
codes = [cli.main(["--output", "json", "extremality", "--mode", mode, path])
         for mode in ("full", "asym")]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def test_extremality_leaves_scipy_unloaded():
    last = run_probe(EXTREMALITY_PROBE).splitlines()[-1]
    assert json.loads(last) == {"codes": [0, 0], "scipy": False}


LHS_PROBE = """
import json, sys
from steercert import cli
code = cli.main(["--output", "json", "lhs", sys.argv[1]])
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules}))
"""


def test_lhs_of_a_product_realization_leaves_scipy_unloaded(tmp_path):
    path = tmp_path / "product.json"
    real = product_realization(np.random.default_rng(2332), 2, 3, 3, 2)
    path.write_text(documents.dumps(real))
    *report, last = run_probe(LHS_PROBE, str(path)).splitlines()
    assert json.loads(last) == {"code": 0, "scipy": False}
    assert json.loads("\n".join(report))["details"]["lhs"] is True
