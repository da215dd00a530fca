"""Affine Steinberg and Kac-Moody group presentations over commutative rings.

The package enumerates affine real roots, classifies prenilpotent pairs,
computes Chevalley structure constants, emits the defining relation families
(and their rank-at-most-two amalgam) as files, replays the commutation
arguments for the non-classical pairs symbolically, and verifies every
relation as an exact matrix identity in a Laurent-polynomial loop model.

Submodules load on first use (``steinberg.loopmodel`` imports it then), so a
command pays at start-up only for the modules it reaches: only ``verify``
loads the loop model and only ``replay`` the collection engine.  They load
through ``__import__``, the import statement's own machinery, also when
``from . import x`` reaches them through ``__getattr__``, so
``python -X importtime`` lists and times every module a command loads.
``steinberg.cli`` itself loads only ``diagrams`` and ``rings``.  No command
loads ``json``: the commands that print JSON write it with ``jsonout``.
``presentation`` is loaded only by ``present``, ``amalgam`` and ``verify``,
and ``roots`` only by the commands that need root data (``roots``,
``pairs``, ``theta``, ``constants``, ``replay`` and ``verify``); the matrix
of an affine label comes from the label's recipe, with no roots.  So
``classify``, ``names`` and ``hypotheses`` load neither.
The records are named tuples or plain classes and ratios are integer pairs,
so no command loads ``inspect`` or ``fractions`` (nor ``decimal``, which it
imports).
"""

__all__ = [
    "chevalley",
    "collection",
    "diagrams",
    "jsonout",
    "loopmodel",
    "presentation",
    "rings",
    "roots",
]


def __getattr__(name: str):
    if name in __all__:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
