"""Batch command-line front end.

Every subcommand is deterministic: identical inputs and flags produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 unsupported configuration.

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
`locale`.  Help (`-h`) and malformed input go through argparse
(`build_parser`), which prints the same help, usage and error text as
always.
"""

from __future__ import annotations

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


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _cmd_classify(args) -> int:
    cls = diagrams.classify(_read_diagram(args.diagram))
    _emit(args, _json({"label": cls.label(), "kind": cls.kind, "rank": cls.rank}))
    return 0


def _cmd_names(args) -> int:
    cls = diagrams.classify(_read_diagram(args.diagram))
    ours, mp, kac = diagrams.name_conversions(cls)
    _emit(args, _json({"ours": ours, "moody_pianzola": mp, "kac": kac}))
    return 0


def _cmd_roots(args) -> int:
    from . import roots as R

    ars = _require_affine_system(args)
    out = [R.root_json(ars, r) for r in R.real_roots_up_to_level(ars, args.level_bound)]
    _emit(args, _json(out))
    return 0


def _cmd_pairs(args) -> int:
    from . import roots as R

    ars = _require_affine_system(args)
    roots = R.real_roots_up_to_level(ars, args.level_bound)
    out = [R.classification_json(ars, a, b) for a in roots for b in roots]
    _emit(args, _json(out))
    return 0


def _cmd_theta(args) -> int:
    from . import roots as R

    ars = _require_affine_system(args)
    alpha, beta = _parse_root(args.alpha), _parse_root(args.beta)
    roots = sorted(R.theta(ars, alpha, beta))
    _emit(args, _json([R.root_json(ars, r) for r in roots]))
    return 0


def _cmd_constants(args) -> int:
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
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _presentation_options(args):
    from . import presentation

    include_torus = None
    if getattr(args, "torus", False):
        include_torus = True
    if getattr(args, "no_torus", False):
        include_torus = False
    return presentation.PresentationOptions(
        include_torus_action=include_torus,
        include_kacmoody_torus=getattr(args, "km_torus", False),
    )


def _cmd_present(args) -> int:
    from . import presentation

    a = _read_diagram(args.diagram)
    ring = rings.parse_descriptor(args.ring)
    pres = presentation.relators_for(a, ring, _presentation_options(args))
    _emit(args, presentation.emit(pres, args.format))
    return 0


def _cmd_amalgam(args) -> int:
    from . import presentation

    a = _read_diagram(args.diagram)
    ring = rings.parse_descriptor(args.ring)
    pres = presentation.amalgam(a, ring, _presentation_options(args))
    _emit(args, presentation.emit(pres, args.format))
    return 0


def _cmd_replay(args) -> int:
    from . import collection

    result = collection.replay_case(args.case, args.eps, args.eps_prime)
    _emit(args, str(result) + "\n" + collection.verdict(result) + "\n")
    return 0


def _cmd_verify(args) -> int:
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
    _emit(args, _json(report))
    return 0 if report["all_passed"] else 1


def _cmd_hypotheses(args) -> int:
    a = _read_diagram(args.diagram)
    profile = diagrams.RingProfile(
        finitely_generated_ring=args.fg_ring,
        module_finite_over_unit_subring=args.module_finite,
        units_finitely_generated=args.units_fg,
    )
    verdict = diagrams.finite_presentability_hypotheses(a, profile)
    _emit(
        args,
        _json(
            {
                "verdict": verdict.verdict,
                "used_special_covering": verdict.used_special_covering,
                "spherical_covering_holds": diagrams.spherical_covering_holds(a),
            }
        ),
    )
    return 0


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
    "amalgam": ("emit the rank-at-most-2 amalgam presentation", _cmd_amalgam, (
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or one that holds only the named
    subcommand: it parses that subcommand's arguments, and prints its help
    and usage errors, as the full parser does."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="steinberg",
        description="Affine Steinberg/Kac-Moody presentations: roots, constants, "
        "relation files and exact verification.",
    )
    # the full parser's usage line names every subcommand; a one-subcommand
    # parser keeps it so (an unrecognized argument prints it)
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, fn, options) in _SUBCOMMANDS.items():
        if command in (None, name):
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
        # help and malformed input go through argparse; a named subcommand
        # needs only its own subparser, -h and unknown or missing commands
        # take the full parser
        parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "level_bound", 0) < 0:
        print("error: --level-bound must be at least 0", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except rings.UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
