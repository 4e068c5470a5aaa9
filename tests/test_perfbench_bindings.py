"""The benchmark tracer binds program names and reads their arguments by
position; a rename or a moved parameter must fail here too."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def _resolve(module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("name, module, attribute", _targets())
def test_traced_name_resolves(name, module, attribute):
    assert callable(_resolve(module, attribute)), name


def _hook_reads():
    """{hook name: [(index, parameter name)]} for every
    ``_arg(args, kwargs, index, "name")`` in a Tracer ``_after_<span>``
    hook, read from the tracer's source; an alias ``_after_x = _after_y``
    reads what its original reads."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    [tracer] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Tracer"]
    reads = {}
    for node in tracer.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_after_"):
            reads[node.name] = [
                (call.args[2].value, call.args[3].value)
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
            ]
        elif isinstance(node, ast.Assign) and getattr(node.value, "id", None) in reads:
            for target in node.targets:
                reads[target.id] = reads[node.value.id]
    return reads


def _hook(name):
    return "_after_" + name.replace(".", "_")


def _argument_reads():
    reads = _hook_reads()
    return [
        (name, module, attribute, index, param)
        for name, module, attribute in _targets()
        for index, param in reads.get(_hook(name), [])
    ]


def test_every_hook_belongs_to_a_traced_span():
    assert sorted(set(_hook_reads()) - {_hook(name) for name, _, _ in _targets()}) == []


@pytest.mark.parametrize("name, module, attribute, index, param", _argument_reads())
def test_hooks_read_the_parameter_at_its_position(name, module, attribute, index, param):
    # A hook reads args[index], else kwargs[param]: the position must hold
    # that parameter, or the function must have neither, so that the
    # hook's default applies.
    parameters = inspect.signature(_resolve(module, attribute)).parameters
    positional = [
        p.name for p in parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if index < len(positional):
        assert positional[index] == param, name
    else:
        assert param not in parameters, name
