"""The package holds only code that it reaches itself.

Every function and method defined in `src/steinberg` (dunders aside) must be
referenced somewhere in the package outside its own definition: by name, as
an attribute, or as an identifier string such as a `getattr` argument.  A
function that only the tests call belongs in `tests/oracles.py`.

Every field that a class declares must be read somewhere in the package, as
an attribute or as an identifier string.  A field is declared by a Record's
`_fields`, by an annotation in a `NamedTuple` class body, or in `__init__` by
`self.x = ...` or `self.__dict__.update(x=...)`.  Writing a field is no read,
and neither are the generated equality and hash that read every field of a
Record.

Both checks read names, not call graphs or types, so a reference counts
whatever it resolves to.  A field is unseen when another field or attribute
shares its name: `roots.FiniteRootSystem` once stored a `family` that nothing
read, but `DiagramClass.family` is read, so this check could not report it.
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


# qualified field name -> why it stays although the package never reads it
ALLOWED_FIELDS = {
    "diagrams.PresentabilityVerdict.spherical_covering_holds":
        "hypotheses prints it: the command writes the verdict's _asdict()",
    "diagrams.PresentabilityVerdict.used_special_covering":
        "hypotheses prints it: the command writes the verdict's _asdict()",
    "collection.CaseData.signs":
        "the loop-model tests orient the case's root elements by it",
    "collection.CaseData.finite_basis":
        "the collection tests take the case's Chevalley basis from it",
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


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _declared_fields(tree, module: str):
    """(qualified name, declaring node) of every field a class of the module
    declares."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        named = any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                    for base in cls.bases)
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                    getattr(target, "id", None) == "_fields" for target in stmt.targets):
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        yield f"{module}.{cls.name}.{node.value}", node
            elif named and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield f"{module}.{cls.name}.{stmt.target.id}", stmt.target
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                for node in ast.walk(stmt):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and _is_self(node.value)):
                        yield f"{module}.{cls.name}.{node.attr}", node
                    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "update"
                          and isinstance(node.func.value, ast.Attribute)
                          and node.func.value.attr == "__dict__"
                          and _is_self(node.func.value.value)):
                        for keyword in node.keywords:
                            if keyword.arg is not None:
                                yield f"{module}.{cls.name}.{keyword.arg}", keyword


def unread_fields(sources: dict) -> list:
    """Qualified names of the fields declared in the modules (module name ->
    source) that no code of theirs reads as an attribute or names in an
    identifier string other than a `_fields` entry."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    declared = [field for module, tree in trees.items()
                for field in _declared_fields(tree, module)]
    declarations = {id(node) for _, node in declared}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and id(node) not in declarations):
                read.add(node.value)
    return sorted({qualified for qualified, _ in declared
                   if qualified.rsplit(".", 1)[1] not in read})


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


def test_every_declared_field_is_read_in_the_package():
    assert unread_fields(_sources()) == sorted(ALLOWED_FIELDS)


def test_an_unread_field_is_reported():
    sources = _sources()
    sources["rings"] += (
        "\n\nclass Probe(Record):\n    _fields = ('probe_kept', 'probe_spare')\n"
        "\n    def __init__(self):\n        self.__dict__.update(probe_cached=1)\n"
        "        self.probe_unused = self.probe_kept\n"
        "\n\nclass Row(NamedTuple):\n    probe_cell: int\n"
    )
    expected = ["rings.Probe.probe_cached", "rings.Probe.probe_spare",
                "rings.Probe.probe_unused", "rings.Row.probe_cell"]
    assert unread_fields(sources) == sorted([*ALLOWED_FIELDS, *expected])


def test_a_field_read_by_attribute_or_string_counts():
    sources = {
        "m": "class Rec(Record):\n    _fields = ('a', 'b')\n\n\n"
             "class Row(NamedTuple):\n    c: int\n\n\n"
             "class Box:\n    def __init__(self):\n        self.d = 0\n"
             "        self.__dict__.update(e=1)\n",
        "n": "def use(rec, row, box):\n"
             "    box.d += 1\n"
             "    return rec.a, getattr(rec, 'b'), row.c, attrgetter('e')(box)\n",
    }
    assert unread_fields(sources) == []
    sources["n"] = "def use(rec, row, box):\n    rec.a = row.c = box.d = box.e = 0\n"
    assert unread_fields(sources) == ["m.Box.d", "m.Box.e", "m.Rec.a", "m.Rec.b", "m.Row.c"]
