"""Every public top-level function and class of the package is reached from
outside its own definition: by the package itself, a demo, the benchmark,
the README or the acceptance tests.  The package's re-export in
`__init__.py` is no reach: it names every public name.  A name that only
the other tests call belongs in the tests, and so does a private top-level
function that the package, the demos and the benchmark never name."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py"),
           *(ROOT / "bench").glob("*.py")]


def _definitions(kinds):
    for path in sorted((ROOT / "src" / "torusdyn").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, kinds):
                yield path, node.lineno, node.name


def _unreached(definitions, files):
    """`module: name` of each definition that no line of `files` names but its own."""
    lines = [((path, n), line) for path in files
             for n, line in enumerate(path.read_text().splitlines(), start=1)]
    return [f"{path.name}: {name}" for path, lineno, name in definitions
            if not any(re.search(rf"\b{name}\b", line)
                       for at, line in lines if at != (path, lineno))]


def test_every_public_name_is_reached():
    public = [d for d in _definitions((ast.FunctionDef, ast.ClassDef))
              if not d[2].startswith("_")]
    reach = [path for path in PROGRAM if path != ROOT / "src" / "torusdyn" / "__init__.py"]
    unreached = _unreached(public, [*reach, ROOT / "README.md",
                                    ROOT / "tests" / "test_acceptance.py"])
    assert not unreached, "reached only from tests/: " + ", ".join(unreached)


def test_every_private_function_is_named_by_the_program():
    private = [d for d in _definitions(ast.FunctionDef) if d[2].startswith("_")]
    unreached = _unreached(private, PROGRAM)
    assert not unreached, "private and named only in tests/: " + ", ".join(unreached)
