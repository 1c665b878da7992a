"""The traced benchmark run resolves every name it spans.

`bench/tracing.py` swaps each `TRACED` entry for a spanning wrapper, looked up
as a function of its `torusdyn` module or as a callable in its class's
`__dict__`, and post-processes the results of the `posts` entries.  A renamed
or deleted library name, or a result of another shape than its post-processor
unpacks, would only fail the traced benchmark pass, so this reads the file's
source (without importing the benchmark) and checks that every name still
resolves the way `install()` looks it up, and that each `posts` entry returns
the tuple its post-processor unpacks or an object whose attribute it sets.
"""

import ast
import importlib
import inspect
import os

import numpy as np
import pytest

from torusdyn.config import parse_canal_experiment, parse_lagrangian
from torusdyn.hyperbolic import cat_map, orbit_ensemble

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracing_names():
    """(TRACED entries, {`posts` key: post-processor's method name}, {method
    name: its definition}) read from the source of bench/tracing.py."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    traced = posts = None
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name == "TRACED":
                traced = ast.literal_eval(node.value)
            elif name == "posts":
                posts = {ast.literal_eval(k): v.attr for k, v in zip(node.value.keys,
                                                                      node.value.values)}
    assert traced and posts, "TRACED or posts not found in bench/tracing.py"
    methods = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    return traced, posts, methods


TRACED, POSTS, METHODS = _tracing_names()


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


PENDULUM = "[lagrangian]\ndim = 1\n\n[potential.cos]\n1 = 1.0\n"
# a small call of each `posts` entry
POST_CALLS = {
    "config.parse_lagrangian": lambda: parse_lagrangian(PENDULUM),
    "config.parse_canal_experiment":
        lambda: parse_canal_experiment(PENDULUM + "[canal]\neps = 0.1\ncore = 0.0\n"),
    "hyperbolic.orbit_ensemble":
        lambda: orbit_ensemble(cat_map(), 3, 2, rng=np.random.default_rng(0)),
}


def _post_shape(method):
    """(tuple length, attribute) the post-processor expects of its argument:
    the length of `a, b = result`, or the attribute of `F.attr = ...`."""
    arg = method.args.args[1].arg
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Tuple) and getattr(node.value, "id", None) == arg:
                return len(target.elts), None
            if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == arg:
                return None, target.attr
    raise AssertionError(f"no unpacking or attribute store of {arg!r} in {method.name}")


@pytest.mark.parametrize("name", POSTS)
def test_post_processed_result_has_the_unpacked_shape(name):
    assert set(POST_CALLS) == set(POSTS), "give each `posts` entry a call here"
    length, attr = _post_shape(METHODS[POSTS[name]])
    result = POST_CALLS[name]()
    if length is not None:
        assert isinstance(result, tuple) and len(result) == length, (name, result)
    else:
        marker = object()
        setattr(result, attr, marker)
        assert getattr(result, attr) is marker
