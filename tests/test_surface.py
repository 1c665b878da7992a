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
outside code spans do not count.  A method is reached only by an attribute
that spells it, whatever object it is read from, or by `.name(` in a README
code span; a plain name of the same spelling is no reach.

Likewise every optional parameter of the public functions, methods and
classes is set by the same program code: a keyword, a default or a
dataclass field that only the tests set belongs in the tests.

And `config` is the package's one text layer: only the CLI imports it, and
only the two of them open files.

Every parameter of a package function or method is read in its body."""

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


def _readme_code_spans():
    """The README's code spans and fenced blocks."""
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)


def _readme_code_names():
    """The identifiers inside the README's code spans and fenced blocks."""
    return {name for span in _readme_code_spans() for name in IDENTIFIER.findall(span)}


def _reached(paths):
    return set().union(*map(_code_names, paths))


def _reach_paths():
    """Program code but the package's re-export, and the acceptance tests."""
    return [*(path for path in PROGRAM if path != PACKAGE / "__init__.py"),
            ROOT / "tests" / "test_acceptance.py"]


def _public_reach():
    return _reached(_reach_paths()) | _readme_code_names()


def test_every_public_name_is_reached():
    reach = _public_reach()
    unreached = [label for label, node in _definitions((ast.FunctionDef, ast.ClassDef))
                 if not node.name.startswith("_") and node.name not in reach]
    assert not unreached, "reached only from tests/: " + ", ".join(unreached)


def _attributes(path):
    """The attribute names a Python file reads or calls."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_every_public_method_is_reached():
    """A method is reached by an attribute of program code (`obj.name`) or by
    `.name(` in a README code span.  A plain name that spells it, such as
    the module `torusdyn.lagrangian` for `MechanicalLagrangian.lagrangian`,
    is no reach."""
    reach = set().union(*map(_attributes, _reach_paths()))
    spans = _readme_code_spans()
    unreached = [f"{label}.{item.name}" for label, node in _definitions(ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)
                 and not item.name.startswith("_") and item.name not in reach
                 and not any(f".{item.name}(" in span for span in spans)]
    assert not unreached, "reached only from tests/: " + ", ".join(unreached)


def _config_imports(tree):
    """The names a module binds to `torusdyn.config` and the names it imports
    from it."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            aliases.update(a.asname or a.name for a in node.names if a.name == "config")
        elif isinstance(node, ast.ImportFrom) and node.module in ("config", "torusdyn.config"):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "torusdyn.config")
    return aliases, names


def test_one_text_layer():
    """`config` is the one module that parses and formats text, and the CLI
    is its one importer: among the package modules only `cli.py` and
    `config.py` call `open(`, `config.py` only for the canal's `core_file`,
    only `config.py` calls `repr(`, and `cli.py` reaches no private helper
    of `config`."""
    opens, reprs, importers, private = {}, [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        called = [(node, getattr(node.func, "id", None)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)]
        calls = [ast.unparse(node) for node, name in called if name == "open"]
        if calls:
            opens[path.name] = calls
        if path.name != "config.py" and any(name == "repr" for _, name in called):
            reprs.append(path.name)
        aliases, names = _config_imports(tree)
        if aliases or names:
            importers.append(path.name)
        private += [n for n in names if n.startswith("_")]
        private += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) in aliases and node.attr.startswith("_")]
    assert set(opens) <= {"cli.py", "config.py"}, f"open( outside cli and config: {opens}"
    assert all("core_file" in call for call in opens.get("config.py", [])), opens["config.py"]
    assert not reprs, f"repr( outside config: {reprs}"
    assert importers == ["cli.py"], f"modules importing config: {importers}"
    assert not private, f"private config helpers reached from outside: {private}"


def test_every_private_function_is_named_by_the_program():
    reach = _reached(PROGRAM)
    unreached = [label for label, node in _definitions(ast.FunctionDef)
                 if node.name.startswith("_") and node.name not in reach]
    assert not unreached, "private and named only in tests/: " + ", ".join(unreached)


def _optional_parameters(fn, skip_first):
    """(name, positional index or None) of each optional parameter of `fn`."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][skip_first:]
    n_required = len(positional) - len(args.defaults)
    return ([(a.arg, i) for i, a in enumerate(positional) if i >= n_required]
            + [(a.arg, None) for a in args.kwonlyargs])


def _settable():
    """(label, called name, parameters) of each definition with optional
    parameters: a public top-level function, a public method, a class's
    `__init__` and a dataclass's defaulted fields, called by the class name."""
    for label, node in _definitions((ast.FunctionDef, ast.ClassDef)):
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                yield label, node.name, _optional_parameters(node, 0)
            continue
        if node.name.startswith("_"):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
            if item.name == "__init__":
                yield label, node.name, _optional_parameters(item, 1)
            elif not item.name.startswith("_"):
                yield f"{label}.{item.name}", item.name, _optional_parameters(item, 0 if static else 1)
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
            yield label, node.name, [(f.target.id, i) for i, f in enumerate(fields)
                                     if f.value is not None]


def _calls(path):
    """(called name, positional count, keywords, unpacks) of each call in a
    Python file.  An `import ... as` alias is taken back to the imported name,
    and `cls(...)` inside a class body is a call of that class."""
    tree = ast.parse(path.read_text())
    alias = {node.asname: node.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
             if isinstance(node, ast.alias) and node.asname}
    classes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classes.update((id(inner), node.name) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = alias.get(func.id, func.id)
            if name == "cls" and id(node) in classes:
                name = classes[id(node)]
        else:
            continue
        unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        yield (name, sum(not isinstance(a, ast.Starred) for a in node.args),
               {k.arg for k in node.keywords if k.arg}, unpacks)


def test_every_keyword_is_set_by_program_code():
    """Each optional parameter of a public function, public method or class
    `__init__`, and each defaulted dataclass field, is set by program code:
    a call by its keyword, with enough positional arguments to reach it, or
    with `*args`/`**kwargs`; or a README code span that holds both `name(`
    and `param=`.  A setting that only the tests set belongs in the tests.
    Calls match definitions by name, as in the checks above: a plain or
    attribute name, an `import ... as` alias taken back to the imported
    name, or `cls(...)` inside the class's own body."""
    calls = {}
    for path in _reach_paths():
        for name, n_args, keywords, unpacks in _calls(path):
            calls.setdefault(name, []).append((n_args, keywords, unpacks))
    spans = _readme_code_spans()
    unset = []
    for label, name, params in _settable():
        for param, index in params:
            if not any(unpacks or param in keywords or (index is not None and index < n_args)
                       for n_args, keywords, unpacks in calls.get(name, [])) \
                    and not any(f"{name}(" in s and f"{param}=" in s for s in spans):
                unset.append(f"{label}({param}=)")
    assert not unset, "set only from tests/: " + ", ".join(unset)


def _unread_parameters(fn, skip_first):
    """The parameters of `fn` its body never reads.  A nested closure's own
    parameters are its own business: a closure may share a sibling's
    signature, as the mechanical and magnetic accelerations do."""
    args = fn.args
    params = [*args.posonlyargs, *args.args][skip_first:] + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [a.arg for a in params if a.arg not in read]


def test_every_parameter_is_read():
    """Each parameter of a package function or method, its receiver aside,
    is read in its body: a parameter nothing reads belongs nowhere."""
    unread = []
    for label, node in _definitions((ast.FunctionDef, ast.ClassDef)):
        if isinstance(node, ast.FunctionDef):
            unread += [f"{label}({p})" for p in _unread_parameters(node, 0)]
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                unread += [f"{label}.{item.name}({p})"
                           for p in _unread_parameters(item, 0 if static else 1)]
    assert not unread, "parameters never read: " + ", ".join(unread)
