"""Every top-level function or class in delaybs is used by delaybs,
every defaulted parameter is passed by some call in delaybs, and every
module-level import is read by its module.

A helper that only tests call is a second copy of what the vectorised
engines already do, and a default no caller overrides is an option that
only tests set; these tests fail when one is added.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "delaybs"
TRACER = ROOT / "perfbench" / "tracer.py"

# Public names no code under src/ uses, each with the reason it stays.
ALLOWED = {
    "to_source": "acceptance criterion 10: the parser round-trips through the printer",
    "structurally_equal": "acceptance criterion 10: compares reparsed trees",
}

# Defaulted parameters no call under src/ passes, as "function(parameter)",
# each with the reason it stays.
ALLOWED_DEFAULTS = {
    "main(argv)": "perfbench and in-process callers pass the arguments",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _used_names(trees):
    """Names read as a Name or an Attribute in the package, outside the
    top-level definition of the same name (recursion is not a use)."""
    used = set()
    for tree in trees.values():
        for node in tree.body:
            own = getattr(node, "name", None)
            used.update(name for name in _names(node) if name != own)
    return used


def _reexported(trees):
    return {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attribute.split(".")[0] for _, _, attribute in tracer.TARGETS}


def _unused(trees, kept, private):
    return sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and node.name not in kept
    )


def test_every_public_definition_is_used_in_the_package():
    trees = _trees()
    kept = _used_names(trees) | _reexported(trees) | _traced() | set(ALLOWED)
    unused = _unused(trees, kept, private=False)
    assert not unused, f"public names that no code under src/ uses: {unused}"


def test_every_private_definition_is_used_in_the_package():
    # A private helper that only tests call, such as a shim left in
    # place of code folded into an engine, fails here.
    trees = _trees()
    unused = _unused(trees, _used_names(trees), private=True)
    assert not unused, f"private names that no code under src/ uses: {unused}"


def test_allowed_names_are_still_defined_and_unused():
    trees = _trees()
    defined = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = _used_names(trees) | _reexported(trees) | _traced()
    assert sorted(name for name in ALLOWED if name not in defined or name in used) == []


def _defaulted(trees):
    """(name a call uses, parameter, index among a call's positional
    arguments or None if keyword-only) for every defaulted parameter; a
    method's call skips self, and ``__init__`` is called by its class name."""
    methods = {
        item: node.name if item.name == "__init__" else item.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args, skip = node.args, int(node in methods)
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first - skip):
                yield methods.get(node, node.name), arg.arg, index
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield methods.get(node, node.name), arg.arg, None


def _passes(call, param, index):
    """Whether call passes param: by keyword, through ** or *, or by position."""
    if any(keyword.arg in (param, None) for keyword in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return index is not None and (starred or len(call.args) > index)


def _unpassed(trees):
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return sorted(
        f"{name}({param})"
        for name, param, index in _defaulted(trees)
        if not any(_passes(call, param, index) for call in calls.get(name, ()))
    )


def test_every_defaulted_parameter_is_passed_in_the_package():
    # A default that no call overrides is an option with one value in
    # use, such as a switch only tests turn on: make it a constant.
    unpassed = [name for name in _unpassed(_trees()) if name not in ALLOWED_DEFAULTS]
    assert not unpassed, f"defaulted parameters no call under src/ passes: {unpassed}"


def test_allowed_defaults_are_still_defined_and_unpassed():
    assert _unpassed(_trees()) == sorted(ALLOWED_DEFAULTS)


def _imported(tree):
    """Names bound by a module's top-level imports, except __future__ ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_module_level_import_is_read():
    # __init__.py imports only to re-export
    unread = sorted(
        f"{module}:{name}"
        for module, tree in _trees().items()
        if module != "__init__.py"
        for name in _imported(tree)
        if name not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    )
    assert not unread, f"module-level imports their module never reads: {unread}"
