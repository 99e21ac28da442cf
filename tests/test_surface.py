"""The library carries only code that a command, a script or the benchmark
reaches, and only fields that such code names: a use in the tests alone
does not count.  References that only
tests compare against live in ``tests/reference.py``."""

import ast
import importlib
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ratcert"


def _definitions():
    """(name, path, line) of each module-level function or class, and each
    method that is not a dunder, defined in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, path, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield item.name, path, item.lineno


def _fields():
    """(name, path, line) of each class-level annotated field of a class
    defined in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield item.target.id, path, item.lineno


def _scanned() -> list[Path]:
    """The package, the scripts and the benchmark's own modules, not its
    tests."""
    return [
        *(ROOT / "src").rglob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
    ]


def _uses(paths: list[Path]) -> dict[str, set[tuple[Path, int]]]:
    """Where each name is used in ``paths``, as (path, line): a name read
    or called (f-strings included), an attribute, or a keyword argument.
    An import line, a definition, a comment or a string is no use."""
    where: dict[str, set[tuple[Path, int]]] = defaultdict(set)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                where[node.id].add((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                where[node.attr].add((path, node.lineno))
            elif isinstance(node, ast.keyword) and node.arg is not None:
                where[node.arg].add((path, node.lineno))
    return where


def _unnamed(items) -> list[str]:
    """Each (name, path, line) whose name is used nowhere but that line."""
    where = _uses(_scanned())
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, path, line in items
        if not where[name] - {(path, line)}
    ]


def test_imports_are_no_use_and_f_strings_are(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from pkg import only_imported, called\n"
        "print(f'{called(1)}', key=3)\n"
        "# only_imported\n"
        "x = 'only_imported'\n"
        "def defined(): pass\n"
        "obj.attr\n",
        encoding="utf-8",
    )
    where = _uses([path])
    assert "only_imported" not in where and "defined" not in where
    assert where["called"] == where["key"] == where["print"] == {(path, 2)}
    assert where["attr"] == {(path, 6)}


def test_every_definition_is_used():
    assert _unnamed(_definitions()) == []


def test_every_field_is_read():
    assert _unnamed(_fields()) == []


def test_cli_import_loads_no_variational_and_root_defines_only_version():
    # the variational system is a test-side reference (tests/reference.py)
    probe = (
        "import importlib.util, json, sys, ratcert\n"
        "public = sorted(n for n in vars(ratcert) if not n.startswith('_'))\n"
        "import ratcert.cli\n"
        "print(json.dumps({'public': public, 'all': hasattr(ratcert, '__all__'),\n"
        "    'version': ratcert.__version__, 'loaded': sorted(sys.modules),\n"
        "    'variational': importlib.util.find_spec('ratcert.variational') is not None}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["public"] == [] and not seen["all"]
    assert isinstance(seen["version"], str)
    assert "ratcert.cli" in seen["loaded"]
    assert not seen["variational"]


def test_every_traced_target_exists():
    # the traced benchmark run reports a target it cannot find as absent and
    # drops every metric that depends on it; resolved as Tracer._resolve does
    perfbench = str(ROOT / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import tracing
    finally:
        sys.path.remove(perfbench)
    missing = []
    for module, attr in [*tracing.SPANNED.values(), *tracing.COUNTED.values()]:
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = vars(owner).get(owner_name)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module}:{attr}")
    assert missing == []
