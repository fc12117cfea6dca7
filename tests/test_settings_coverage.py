"""Only :mod:`repro.settings` reads the environment, and every knob is live.

A structural companion to ``test_settings.py``, in the style of
``test_fault_site_coverage.py``:

* no module under ``src/repro`` other than ``settings.py`` may *read*
  ``os.environ`` (``.get``, ``[...]`` loads, ``.items()``, ``in``,
  iteration, passing it along) or call ``os.getenv``; writes
  (``os.environ[k] = v``, ``del``, ``.pop``, ``.setdefault``,
  ``.update``) stay allowed, because the chaos harness and the server
  retarget knobs for the code they run;
* every ``settings.get`` call names its knob with a string literal that
  :data:`repro.settings.KNOBS` declares;
* every declared knob is read by at least one ``settings.get`` call
  under ``src/repro`` or ``benchmarks/``, so a dead knob cannot linger
  in the table.
"""

import ast
from pathlib import Path

import pytest

from repro import settings

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
READ_ROOTS = (SRC, REPO / "benchmarks")

#: ``os.environ.<method>`` calls that only write.
WRITE_METHODS = {"pop", "setdefault", "update"}


def _is_os_attr(node, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def environ_reads(tree: ast.AST):
    """Line numbers of environment reads in a parsed module."""
    parents = {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }
    lines = []
    for node in ast.walk(tree):
        if _is_os_attr(node, "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if {a.name for a in node.names} & {"environ", "getenv"}:
                lines.append(node.lineno)
        elif _is_os_attr(node, "environ"):
            parent = parents.get(node)
            written = (
                isinstance(parent, ast.Subscript)
                and isinstance(parent.ctx, (ast.Store, ast.Del))
            ) or (
                isinstance(parent, ast.Attribute) and parent.attr in WRITE_METHODS
            )
            if not written:
                lines.append(node.lineno)
    return lines


def settings_gets(tree: ast.AST):
    """``(lineno, knob name or None)`` for every ``settings.get(...)``."""
    calls = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "settings"
        ):
            arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
            literal = (
                arg.value
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                else None
            )
            calls.append((node.lineno, literal))
    return calls


def _modules(root: Path):
    for path in sorted(root.rglob("*.py")):
        if path != SRC / "settings.py":
            yield path, ast.parse(path.read_text(), filename=str(path))


SRC_MODULES = list(_modules(SRC))
READ_MODULES = [m for root in READ_ROOTS for m in _modules(root)]


def test_settings_is_the_only_environment_reader():
    offenders = [
        f"{path.relative_to(REPO)}:{line}"
        for path, tree in SRC_MODULES
        for line in environ_reads(tree)
    ]
    assert not offenders, (
        "read REPRO_* knobs through repro.settings.get, not os.environ: "
        + ", ".join(offenders)
    )


def test_every_settings_get_names_a_declared_knob():
    bad = [
        f"{path.relative_to(REPO)}:{line} ({name})"
        for path, tree in READ_MODULES
        for line, name in settings_gets(tree)
        if name not in settings.KNOBS
    ]
    assert not bad, "settings.get of a non-literal or undeclared knob: " + ", ".join(bad)


@pytest.mark.parametrize("name", sorted(settings.KNOBS))
def test_every_knob_is_read_somewhere(name):
    readers = [
        path for path, tree in READ_MODULES
        if any(knob == name for _line, knob in settings_gets(tree))
    ]
    assert readers, f"{name} is declared in repro.settings.KNOBS but nothing reads it"


@pytest.mark.parametrize("source, flagged", [
    ("import os\nos.environ.get('X')", True),
    ("import os\nos.getenv('X')", True),
    ("import os\nx = os.environ['X']", True),
    ("import os\nfor k, v in os.environ.items(): pass", True),
    ("import os\n'X' in os.environ", True),
    ("import os\nenv = dict(os.environ)", True),
    ("from os import environ", True),
    ("import os\nos.environ['X'] = '1'", False),
    ("import os\ndel os.environ['X']", False),
    ("import os\nos.environ.pop('X', None)", False),
    ("import os\nos.environ.setdefault('X', '1')", False),
])
def test_reader_detection(source, flagged):
    assert bool(environ_reads(ast.parse(source))) is flagged
