"""Every public top-level function and class of the package, and every public
method of its classes, is reached from outside its own definition by program
code: the package itself, a demo, the benchmark, a code span of the README or
the acceptance tests.  The package's re-export in `__init__.py` is no reach:
it names every public name.  A name that only the other tests call belongs in
the tests, and so does a private top-level function that the package, the
demos and the benchmark never name.

A reach is code, not prose: a name, an attribute, an imported name or a
string of the benchmark's `TRACED` table, which names the calls it wraps
by string ("tonelli_minimizer", "NegativeLoopSearch.find").  Other strings,
such as dict keys or argparse dests, docstrings, comments and README text
outside code spans do not count.  The check is by
name, so a method also counts as reached by any attribute or name that
spells it, whatever object it is read from."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusdyn"
PROGRAM = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py"),
           *(ROOT / "bench").glob("*.py")]
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _definitions(kinds):
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, kinds):
                yield f"{path.name}: {node.name}", node


def _code_names(path):
    """The names a Python file reaches by code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            names.update(part for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                         for part in c.value.split("."))
    return names


def _readme_code_names():
    """The identifiers inside the README's code spans and fenced blocks."""
    text = (ROOT / "README.md").read_text()
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return {name for span in spans for name in IDENTIFIER.findall(span)}


def _reached(paths):
    return set().union(*map(_code_names, paths))


def _public_reach():
    paths = [path for path in PROGRAM if path != PACKAGE / "__init__.py"]
    return (_reached([*paths, ROOT / "tests" / "test_acceptance.py"])
            | _readme_code_names())


def test_every_public_name_is_reached():
    reach = _public_reach()
    unreached = [label for label, node in _definitions((ast.FunctionDef, ast.ClassDef))
                 if not node.name.startswith("_") and node.name not in reach]
    assert not unreached, "reached only from tests/: " + ", ".join(unreached)


def test_every_public_method_is_reached():
    reach = _public_reach()
    unreached = [f"{label}.{item.name}" for label, node in _definitions(ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)
                 and not item.name.startswith("_") and item.name not in reach]
    assert not unreached, "reached only from tests/: " + ", ".join(unreached)


def test_every_private_function_is_named_by_the_program():
    reach = _reached(PROGRAM)
    unreached = [label for label, node in _definitions(ast.FunctionDef)
                 if node.name.startswith("_") and node.name not in reach]
    assert not unreached, "private and named only in tests/: " + ", ".join(unreached)
