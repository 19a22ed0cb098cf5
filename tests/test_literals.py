"""Literal tolerances in the package do not grow in number.

Tolerances belong in one ``Tolerances`` object, whose defaults the CLI's
tolerance flags take.  A float literal below 1e-6 anywhere else is a
tolerance that ``--abs-tol`` and its siblings never reach.  The count of
such literals may only fall: lower ``CEILING`` when one is removed.
"""

import ast
from pathlib import Path

import steercert

MODULES = sorted(Path(steercert.__file__).parent.glob("*.py"))
CEILING = 2


def literal_tolerances(source: str) -> list:
    """``(line, value)`` of every float literal with ``0 < |value| < 1e-6``,
    leaving out the body of ``class Tolerances`` and the ``default=`` of an
    ``add_argument`` call."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
            exempt.update(id(n) for n in ast.walk(node))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            exempt.update(id(k.value) for k in node.keywords if k.arg == "default")
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0 < abs(node.value) < 1e-6 and id(node) not in exempt)


def test_scan_finds_literal_tolerances():
    source = ("class Tolerances:\n    abs_tol: float = 1e-9\n"
              "parser.add_argument('--abs-tol', type=float, default=1e-9)\n"
              "if dev > 1e-8 or x < -1e-12 or y > 1e-3:\n    pass\n")
    assert literal_tolerances(source) == [(4, 1e-12), (4, 1e-08)]


def test_literal_tolerances_stay_under_the_ceiling():
    found = {path.name: literal_tolerances(path.read_text()) for path in MODULES}
    assert sum(map(len, found.values())) <= CEILING, found
