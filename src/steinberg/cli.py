"""Batch command-line front end.

Every subcommand is deterministic: identical inputs and flags produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 unsupported configuration.

`main` returns the exit code and never ends the process, so it can be
called in-process.  `run` is the process entry point (`python -m steinberg`
and the `steinberg` script): it calls `main`, flushes stdout and stderr,
and ends the process with `os._exit`, skipping the interpreter teardown
that would free every module and object one at a time.  Each subcommand
returns its exit code and its output, which `main` writes to the `--out`
file or to stdout.  A stdout that cannot be written (a closed pipe, a full
disk) exits 120 with the interpreter's "Exception ignored ..." report,
whatever the output's size and the buffering.

Importing this module loads only `diagrams` and `rings`; each subcommand
imports the rest of what it uses: `roots` for `roots`, `pairs`, `theta` and
`constants`, `presentation` for `present`, `amalgam` and `verify`,
`chevalley` for `constants`, `collection` (with `chevalley` and `roots`)
for `replay`, `loopmodel` (with `roots`) for `verify`, and `jsonout` for the
JSON outputs (`presentation` imports it for `--format json`).  No command
loads `json`.  The matrix of an affine label comes from the label's recipe
(diagrams.affine_cartan), so naming an affine diagram loads no `roots`.

Each subcommand's options are written once, in `_SUBCOMMANDS`.  A
well-formed command line is parsed by `parse_exact` over that table, which
returns what argparse would, and loads no `argparse`, `gettext` or
`locale`.  Help (`-h`) and malformed input go through argparse, which
builds one parser of every subcommand (`build_parser`) and prints the same
help, usage and error text as always.  The help is written as any output
is, so an unwritable stdout exits 120 for it too.
"""

from __future__ import annotations

import io
import os
import sys
from types import SimpleNamespace

from . import diagrams, rings


def _read_diagram(text: str) -> diagrams.GeneralizedCartanMatrix:
    """A label, matrix text, or the path of a file holding either.  Text in
    label syntax that names no diagram and no file reports why the label is
    invalid."""
    try:
        return diagrams.parse_diagram(text)
    except ValueError as exc:
        label_error = exc if diagrams.is_label(text) else None
    try:
        with open(text) as fh:
            return diagrams.parse_diagram(fh.read())
    except OSError:
        raise label_error or ValueError(f"cannot interpret diagram {text!r}") from None


def _parse_root(text: str):
    from .roots import AffineRoot

    coords_text, _, level_text = text.partition("@")
    coords = tuple(int(x) for x in coords_text.split(","))
    return AffineRoot(coords, int(level_text or "0"))


def _json(payload) -> str:
    from .jsonout import dumps

    return dumps(payload) + "\n"


def _require_affine_system(args):
    from . import roots as R

    a = _read_diagram(args.diagram)
    cls = diagrams.classify(a)
    if not cls.is_affine:
        raise ValueError(f"{cls.label()} is not an affine diagram")
    return R.affine_system(cls)


def _cmd_classify(args) -> tuple[int, str]:
    cls = diagrams.classify(_read_diagram(args.diagram))
    return 0, _json({"label": cls.label(), "kind": cls.kind, "rank": cls.rank})


def _cmd_names(args) -> tuple[int, str]:
    cls = diagrams.classify(_read_diagram(args.diagram))
    ours, mp, kac = diagrams.name_conversions(cls)
    return 0, _json({"ours": ours, "moody_pianzola": mp, "kac": kac})


def _cmd_roots(args) -> tuple[int, str]:
    from . import roots as R

    ars = _require_affine_system(args)
    out = [R.root_json(ars, r) for r in R.real_roots_up_to_level(ars, args.level_bound)]
    return 0, _json(out)


def _cmd_pairs(args) -> tuple[int, str]:
    from . import roots as R

    ars = _require_affine_system(args)
    roots = R.real_roots_up_to_level(ars, args.level_bound)
    out = [R.classification_json(ars, a, b) for a in roots for b in roots]
    return 0, _json(out)


def _cmd_theta(args) -> tuple[int, str]:
    from . import roots as R

    ars = _require_affine_system(args)
    alpha, beta = _parse_root(args.alpha), _parse_root(args.beta)
    roots = sorted(R.theta(ars, alpha, beta))
    return 0, _json([R.root_json(ars, r) for r in roots])


def _cmd_constants(args) -> tuple[int, str]:
    from . import chevalley
    from . import roots as R

    a = _read_diagram(args.diagram)
    cls = diagrams.classify(a)
    if cls.kind != "finite":
        raise ValueError("structure constants are computed for finite diagrams")
    system = R.enumerate_finite_roots(a, cls.family)
    basis = chevalley.build_chevalley_basis(system)
    label = {r: ",".join(map(str, r)) for r in system.roots}
    lines = [f"N {label[x]} {label[y]} {n}" for (x, y), n in basis.constants()]
    return 0, "\n".join(lines) + "\n"


def _cmd_present(args) -> tuple[int, str]:
    """present, or amalgam: the full presentation or the rank-at-most-2 one."""
    from . import presentation

    build = presentation.relators_for if args.command == "present" else presentation.amalgam
    torus = False if args.no_torus else True if args.torus else None
    pres = build(_read_diagram(args.diagram), rings.parse_descriptor(args.ring),
                 presentation.PresentationOptions(torus, args.km_torus))
    return 0, presentation.emit(pres, args.format)


def _cmd_replay(args) -> tuple[int, str]:
    from . import collection

    result = collection.replay_case(args.case, args.eps, args.eps_prime)
    return 0, str(result) + "\n" + collection.verdict(result) + "\n"


def _cmd_verify(args) -> tuple[int, str]:
    from . import loopmodel, presentation

    a = _read_diagram(args.diagram)
    ring = rings.parse_descriptor(args.ring)
    model = loopmodel.LoopModel(a, ring)
    report = loopmodel.verify_presentation(
        model, presentation.PresentationOptions(include_torus_action=True)
    )
    mr = loopmodel.verify_morita_rehmann(model, args.level_bound)
    report["families"] += mr["families"]
    report["level_bound"] = args.level_bound
    report["all_passed"] = report["all_passed"] and mr["all_passed"]
    return 0 if report["all_passed"] else 1, _json(report)


def _cmd_hypotheses(args) -> tuple[int, str]:
    a = _read_diagram(args.diagram)
    profile = diagrams.RingProfile(
        finitely_generated_ring=args.fg_ring,
        module_finite_over_unit_subring=args.module_finite,
        units_finitely_generated=args.units_fg,
    )
    verdict = diagrams.finite_presentability_hypotheses(a, profile)
    # above rank 3 the verdict used the special covering iff this one fails
    covering = (not verdict.used_special_covering if a.rank > 3
                else diagrams.spherical_covering_holds(a))
    return 0, _json({
        "verdict": verdict.verdict,
        "used_special_covering": verdict.used_special_covering,
        "spherical_covering_holds": covering,
    })


_FLAG = {"action": "store_true"}
_DIAGRAM = ("--diagram", {"required": True,
                          "help": "family label (A~2, BC~3^odd, B3, ...) or matrix file"})
_RING = ("--ring", {"required": True,
                    "help": "ring descriptor (Z, Z/5, GF(7), Z[t,u], Z/5[t^+-1])"})
_LEVEL = ("--level-bound", {"type": int, "default": 2})
_OUTPUT = (("--out", {"help": "write output to a file instead of stdout"}),
           ("--jobs", {"type": int, "default": 1,
                       "help": "worker budget; outputs never depend on it"}))
_FORMAT = ("--format", {"choices": ("native", "gap", "json"), "default": "native"})

# name -> (help, command, options), in the order of the help; each option is
# a flag and the keyword arguments of its add_argument, which both parsers
# read (build_parser for argparse, parse_exact for well-formed argv)
_SUBCOMMANDS = {
    "classify": ("recognize a diagram", _cmd_classify, (_DIAGRAM, *_OUTPUT)),
    "names": ("Moody-Pianzola and Kac names of an affine label", _cmd_names,
              (_DIAGRAM, *_OUTPUT)),
    "roots": ("real roots up to a level bound, as JSON", _cmd_roots,
              (_DIAGRAM, _LEVEL, *_OUTPUT)),
    "pairs": ("pair classification report, as JSON", _cmd_pairs,
              (_DIAGRAM, _LEVEL, *_OUTPUT)),
    "theta": ("the root string (N a + N b) of a pair", _cmd_theta, (
        _DIAGRAM, *_OUTPUT,
        ("--alpha", {"required": True,
                     "help": "root as coords@level, e.g. 1,0@0; a negative root "
                             "needs the = form, e.g. --alpha=-1,0@0"}),
        ("--beta", {"required": True,
                    "help": "root as coords@level; a negative root needs the = form, "
                            "e.g. --beta=-1,0@0"}),
    )),
    "constants": ("structure constant table of a finite diagram", _cmd_constants,
                  (_DIAGRAM, *_OUTPUT)),
    "present": ("emit the full presentation", _cmd_present, (
        _DIAGRAM, _RING, *_OUTPUT, _FORMAT,
        ("--torus", {**_FLAG, "help": "force the torus-action families"}),
        ("--no-torus", {**_FLAG, "help": "omit the torus-action families"}),
        ("--km-torus", {**_FLAG, "help": "adjoin the torus relations of the Kac-Moody quotient"}),
    )),
    "amalgam": ("emit the rank-at-most-2 amalgam presentation", _cmd_present, (
        _DIAGRAM, _RING, *_OUTPUT, _FORMAT,
        ("--torus", _FLAG), ("--no-torus", _FLAG), ("--km-torus", _FLAG),
    )),
    "replay": ("replay one of the commutation arguments", _cmd_replay, (
        # collection.CASE_IDS, named here so that only replay loads collection
        ("--case", {"type": int, "required": True, "choices": range(1, 9),
                    "help": "1-7, or 8 for the 0mod3 variant of case 4"}),
        ("--eps", {"type": int, "default": 1, "choices": (1, -1)}),
        ("--eps-prime", {"type": int, "default": 1, "choices": (1, -1)}),
        ("--out", {}),
        ("--jobs", {"type": int, "default": 1}),
    )),
    "verify": ("verify every relation instance in the loop model", _cmd_verify,
               (_DIAGRAM, _RING, _LEVEL, *_OUTPUT)),
    "hypotheses": ("finite-presentability hypothesis check", _cmd_hypotheses, (
        _DIAGRAM, *_OUTPUT,
        ("--fg-ring", {**_FLAG, "help": "assert: the ring is finitely generated as a ring"}),
        ("--module-finite", {**_FLAG, "help": "assert: finitely generated module over a "
                                              "unit-generated subring"}),
        ("--units-fg", {**_FLAG, "help": "assert: the unit group is finitely generated"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="steinberg",
        description="Affine Steinberg/Kac-Moody presentations: roots, constants, "
        "relation files and exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, fn, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _is_negative_number(token: str) -> bool:
    # - and ASCII digits: argparse reads it as a value, not as an option, since
    # no option looks like a negative number (other such tokens, e.g. -1.5,
    # go to argparse)
    digits = token[1:]
    return token[:1] == "-" and digits.isascii() and digits.isdigit()


def parse_exact(argv) -> SimpleNamespace | None:
    """The arguments argparse returns for a well-formed argv: an exact
    subcommand, then exact options as --name value or --name=value, flags
    without =, valid ints and choices, every required option; a repeated
    option keeps its last value.  None for anything else (help, --,
    abbreviations, unknown or missing tokens, invalid values), which
    argparse then parses, or reports."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, fn, options = _SUBCOMMANDS[argv[0]]
    table = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kwargs = table.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _is_negative_number(value):
                return None
        elif value == "--":  # argparse drops it from the values
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], fn=fn)
    for flag, kwargs in options:
        if flag in given:
            value = given[flag]
        elif kwargs.get("required"):
            return None
        elif kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_exact(argv)
    if args is None:
        # help and malformed input go through argparse; its help is kept and
        # written as any output is, since argparse swallows a failed write
        from contextlib import redirect_stdout

        shown = io.StringIO()
        try:
            with redirect_stdout(shown):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                return 2
            sys.stdout.write(shown.getvalue())
            return 0
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        if getattr(args, "level_bound", 0) < 0:
            raise ValueError("--level-bound must be at least 0")
        code, text = args.fn(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, rings.UnsupportedModelError) else 2
    if not args.out:
        # past the handlers: a failed write to stdout is no usage error, and
        # escapes to the caller (run exits 120)
        sys.stdout.write(text)
    return code


def run() -> None:
    """Run `main` on the process's argv, flush its output and end the
    process with `main`'s exit code, without interpreter teardown; never
    returns.  An exception that escapes `main` propagates as usual, but for
    an OSError, which can only be a failed write to stdout (or to stderr,
    where no report can appear): `main` handles every other.

    A stdout that cannot be written, whether `main`'s write or the flush
    fails, exits 120 with the report of the interpreter's exit, once,
    whatever the output's size and the buffering; a failed stderr flush
    also exits 120, as the interpreter does.  The report cannot be left to
    the interpreter: a failed flush can drop the text it held, so a second
    flush at exit would succeed.  An unbuffered stdout gets a buffered binary
    layer, with the name, mode and encoding the report prints: its own text
    layer ignores a short write, so a pipe closed early would lose output."""
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer), out.encoding,
                                      out.errors, write_through=True)
        sys.stdout.mode = out.mode
    failure = None
    try:
        code = main()
    except OSError as exc:
        code, failure = 120, exc
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code, failure = 120, failure or exc
    report = ""
    if failure is not None:
        # the words of the interpreter's exit, which changed in Python 3.13
        where = ("on flushing sys.stdout:" if sys.version_info >= (3, 13)
                 else f"in: {sys.stdout!r}")
        report = f"Exception ignored {where}\n{type(failure).__qualname__}: {failure}\n"
    try:
        if sys.stderr is not None:
            sys.stderr.write(report)
            sys.stderr.flush()
    except OSError:
        code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
