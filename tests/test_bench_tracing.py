"""The traced benchmark run resolves every name it spans.

`bench/tracing.py` swaps each `TRACED` entry for a spanning wrapper, looked up
as a function of its `torusdyn` module or as a callable in its class's
`__dict__`, and post-processes the results of the `posts` entries.  A renamed
or deleted library name would only fail the traced benchmark pass, so this
reads the file's source (without importing the benchmark) and checks that
every name still resolves the way `install()` looks it up.
"""

import ast
import importlib
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracing_names():
    """(TRACED entries, `posts` keys) read from the source of bench/tracing.py."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    traced = posts = None
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name == "TRACED":
                traced = ast.literal_eval(node.value)
            elif name == "posts":
                posts = [ast.literal_eval(k) for k in node.value.keys]
    assert traced and posts, "TRACED or posts not found in bench/tracing.py"
    return traced, posts


TRACED, POSTS = _tracing_names()


def _resolve(mod_name, qual):
    """What `install()` swaps: the module's own function, or the class's own callable."""
    mod = importlib.import_module(f"torusdyn.{mod_name}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(mod, cls_name).__dict__[attr]
    fn = mod.__dict__[qual]
    assert inspect.isfunction(fn), f"torusdyn.{mod_name}.{qual} is not a function"
    return fn


@pytest.mark.parametrize("mod_name,qual", TRACED, ids=[".".join(e) for e in TRACED])
def test_traced_name_resolves(mod_name, qual):
    assert callable(_resolve(mod_name, qual))


@pytest.mark.parametrize("name", POSTS)
def test_post_processed_name_is_traced_and_resolves(name):
    mod_name, qual = name.split(".", 1)
    assert (mod_name, qual) in TRACED
    assert callable(_resolve(mod_name, qual))
