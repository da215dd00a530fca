"""Run one steinberg CLI call with the package's layer boundaries traced.

    PYTHONPATH=src python bench/tracer.py SPANS.json ARG...
    PYTHONPATH=src python bench/tracer.py --calibrate

runs ``steinberg ARG...`` exactly as ``python -m steinberg ARG...`` would
(same stdout, same exit code) after wrapping every public function and
method of the eight modules.  Each wrapper counts its calls.  A call that
crosses from one layer (module) into another also records a span (name,
start, end, parent); calls within a layer are only counted, which keeps the
cost of tracing hot intra-layer methods such as ``LoopMatrix.__mul__`` low
without changing any layer's self time.  Spans are aggregated in memory per
(parent, name) edge into a count, an inclusive time and a self time (the span
minus the time its child spans cover).  When the call ends they are written
to SPANS.json with the counts, the import time of ``steinberg.cli``, a few
computed counters and the time spent in the counter hooks.  ``--calibrate``
prints the measured cost of one wrapper instead.

What is wrapped: module-level functions whose name has no leading
underscore, and the methods of classes defined in the module that are
public or one of ``__init__``, ``__mul__``, ``__eq__``, ``__contains__``.
Methods generated by ``dataclass`` and properties are left alone, and so are
the methods of ``rings`` (its module-level functions only are traced).  A
generator function's span covers creating the generator, not iterating it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
import types
import weakref

perf = time.perf_counter

LAYERS = ("rings", "diagrams", "roots", "chevalley", "presentation",
          "collection", "loopmodel", "cli")
DUNDERS = {"__init__", "__mul__", "__eq__", "__contains__"}


class Tracer:
    """Spans, counts and computed counters of one traced process."""

    def __init__(self):
        self.stack: list = []  # frames [name, child_time] of the open spans
        self.current = [None]  # layer of the innermost open span
        self.edges: dict = {}  # (parent name, name) -> [count, inclusive_s, self_s]
        self.calls: dict = {}  # name -> [calls, calls within the caller's layer]
        self.hook_s: dict = {}  # layer -> time in the counter hooks, charged to it
        self.counters = {
            "loopmodel.block_products": 0,
            "loopmodel.block_macs": 0,
            "presentation.relators": 0,
            "presentation.emitted_bytes": 0,
        }
        self.letters: set = set()
        self.models: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.serial = itertools.count()
        self.hooks = {
            "loopmodel.LoopMatrix.__mul__": self._on_product,
            "loopmodel.LoopModel.__init__": self._on_model,
            "loopmodel.LoopModel.letter": self._on_letter,
            "presentation.relators_for": self._on_presentation,
            "presentation.amalgam": self._on_presentation,
            "presentation.emit": self._on_emit,
        }

    def wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        edges, stack, current, hook_s = self.edges, self.stack, self.current, self.hook_s
        calls = self.calls.setdefault(name, [0, 0])
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            if current[0] == layer:
                calls[1] += 1
                result = fn(*args, **kwargs)
            else:
                caller = current[0]
                parent = stack[-1][0] if stack else None
                frame = [name, 0.0]
                stack.append(frame)
                current[0] = layer
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    current[0] = caller
                    if stack:
                        stack[-1][1] += dur
                    rec = edges.get((parent, name))
                    if rec is None:
                        rec = edges[(parent, name)] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]
            if hook is not None:
                h0 = perf()
                hook(args, result)
                hook_s[current[0]] = hook_s.get(current[0], 0.0) + perf() - h0
            return result

        return wrapper

    # -- computed counters ----------------------------------------------------

    def _on_product(self, args, result):
        a, b = args
        blocks = len(a.blocks) * len(b.blocks)
        self.counters["loopmodel.block_products"] += blocks
        self.counters["loopmodel.block_macs"] += blocks * a.dim ** 3

    def _on_model(self, args, result):
        self.models[args[0]] = next(self.serial)

    def _on_letter(self, args, result):
        model, gen, exp = args
        param = getattr(gen.param, "data", gen.param)
        self.letters.add((self.models.get(model), gen.kind, gen.node, param, exp))

    def _on_presentation(self, args, result):
        self.counters["presentation.relators"] += len(result.relators)

    def _on_emit(self, args, result):
        self.counters["presentation.emitted_bytes"] += len(result.encode())

    # -- installing the wrappers ----------------------------------------------

    def install(self, package: str = "steinberg") -> int:
        """Wrap the public callables of every layer module; return how many."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        replaced = {}  # id(original) -> (original, wrapper)
        methods = 0
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    if layer == "rings":
                        continue
                    for mattr, meth in list(vars(obj).items()):
                        if (isinstance(meth, types.FunctionType) and _wanted(mattr, True)
                                and _defined_in(meth, mod)):
                            setattr(obj, mattr, self.wrap(meth, f"{layer}.{obj.__name__}.{mattr}"))
                            methods += 1
                elif callable(obj) and _wanted(attr, False) and _defined_in(obj, mod):
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        # rebinding every module also covers names bound by ``from .x import f``
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                original, wrapper = replaced.get(id(obj), (None, None))
                if original is obj:
                    setattr(mod, attr, wrapper)
        return len(replaced) + methods

    def payload(self) -> dict:
        return {
            "counters": {**self.counters, "loopmodel.letters_distinct": len(self.letters)},
            "calls": self.calls,
            "hook_s": self.hook_s,
            "edges": [[p, n, c, incl, slf] for (p, n), (c, incl, slf) in self.edges.items()],
        }


def _defined_in(fn, module) -> bool:
    code = getattr(getattr(fn, "__wrapped__", fn), "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _wanted(attr: str, is_method: bool) -> bool:
    return not attr.startswith("_") or (is_method and attr in DUNDERS)


def calibrate(n: int = 20000) -> dict:
    """Measured cost of one wrapper around a two-argument call.

    ``within_s``: a call inside its caller's layer (only counted), charged to
    that layer.  ``inside_s`` and ``outside_s``: a layer-crossing call, split
    into the part inside the recorded span (charged to the callee's layer)
    and the part outside it (charged to the caller's).  The benchmark moves
    all three out of the layers into the unattributed time."""

    def noop(a, b):
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "trace.noop")
    tracer.stack.append(["calibration", 0.0])
    best = {"plain": float("inf"), "within": float("inf"), "crossing": float("inf")}
    for _ in range(3):
        for mode in best:
            fn = noop if mode == "plain" else wrapped
            tracer.current[0] = "trace" if mode == "within" else "calibration"
            t0 = perf()
            for _ in range(n):
                fn(1, 2)
            best[mode] = min(best[mode], (perf() - t0) / n)
    count, inclusive, _ = tracer.edges[("calibration", "trace.noop")]
    inside = max(0.0, inclusive / count - best["plain"])
    return {
        "within_s": max(0.0, best["within"] - best["plain"]),
        "inside_s": inside,
        "outside_s": max(0.0, best["crossing"] - best["plain"] - inside),
    }


def main(argv: list[str]) -> int:
    if argv == ["--calibrate"]:
        print(json.dumps(calibrate()))
        return 0
    out_path, cli_args = argv[0], argv[1:]
    t0 = perf()
    from steinberg import cli
    import_s = perf() - t0
    tracer = Tracer()
    wrapped = tracer.install()
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "wrapped": wrapped, **tracer.payload()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
