"""Every public top-level function and class of the package is reached from
outside its own definition: by the package itself, a demo, the benchmark,
the README or the acceptance tests.  A name that only the other tests call
belongs in the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _public_definitions():
    for path in sorted((ROOT / "src" / "torusdyn").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.lineno, node.name


def _reaching_lines():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py"),
             *(ROOT / "bench").glob("*.py"), ROOT / "README.md",
             ROOT / "tests" / "test_acceptance.py"]
    return [((path, n), line) for path in files
            for n, line in enumerate(path.read_text().splitlines(), start=1)]


def test_every_public_name_is_reached():
    lines = _reaching_lines()
    unreached = [f"{path.name}: {name}" for path, lineno, name in _public_definitions()
                 if not any(re.search(rf"\b{name}\b", line)
                            for at, line in lines if at != (path, lineno))]
    assert not unreached, "reached only from tests/: " + ", ".join(unreached)
