"""The package holds only code that it reaches itself.

Every function and method defined in `src/steinberg` (dunders aside) must be
referenced somewhere in the package outside its own definition: by name, as
an attribute, or as an identifier string such as a `getattr` argument.  A
function that only the tests call belongs in `tests/oracles.py`.  The check
reads names, not call graphs, so a reference counts whatever it resolves to.
"""

import ast
import pathlib

import steinberg

PACKAGE = pathlib.Path(steinberg.__file__).resolve().parent

# qualified name -> why it stays although the package never reads it
ALLOWED = {
    "loopmodel.LoopMatrix.blocks":
        "bench/tracer.py reads it to count the block products of each matrix product",
}


def _sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _references(node) -> list:
    """Every identifier that a node and its descendants refer to."""
    names = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.append(child.id)
        elif isinstance(child, ast.Attribute):
            names.append(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if child.value.isidentifier():
                names.append(child.value)
    return names


def _definitions(tree, prefix: str):
    """(qualified name, node) of every function and method, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _definitions(node, name)
        else:
            yield from _definitions(node, prefix)


def unreferenced(sources: dict) -> list:
    """Qualified names of the non-dunder functions and methods of the modules
    (module name -> source) that no code of theirs outside the function's
    own definition refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere: dict = {}
    for tree in trees.values():
        for name in _references(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = _references(node).count(node.name)
            if everywhere.get(node.name, 0) == own:
                found.append(qualified)
    return sorted(found)


def test_every_package_function_is_reached_from_the_package():
    assert unreferenced(_sources()) == sorted(ALLOWED)


def test_a_function_only_the_tests_call_is_reported():
    sources = _sources()
    sources["rings"] += (
        "\n\ndef only_for_tests(a):\n    return only_for_tests(a - 1) if a else a\n"
        "\n\nclass Probe:\n    def check(self):\n        return self\n"
    )
    assert unreferenced(sources) == sorted([*ALLOWED, "rings.Probe.check", "rings.only_for_tests"])


def test_a_reference_by_name_attribute_or_string_counts():
    sources = {
        "m": "def f():\n    pass\n\n\ndef g():\n    pass\n\n\ndef h():\n    pass\n\n\n"
             "def use(obj):\n    return f, obj.g, getattr(obj, 'h')\n",
        "n": "import m\n\nm.use(None)\n",
    }
    assert unreferenced(sources) == []
    sources["n"] = "pass\n"
    assert unreferenced(sources) == ["m.use"]
