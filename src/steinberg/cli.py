"""Batch command-line front end.

Every subcommand is deterministic: identical inputs and flags produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 unsupported configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import collection, diagrams, loopmodel, presentation, rings
from . import roots as R
from .roots import AffineRoot


def _read_diagram(text: str) -> diagrams.GeneralizedCartanMatrix:
    try:
        return diagrams.parse_diagram(text)
    except ValueError:
        try:
            with open(text) as fh:
                return diagrams.parse_diagram(fh.read())
        except OSError:
            raise ValueError(f"cannot interpret diagram {text!r}") from None


def _parse_root(text: str) -> AffineRoot:
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _require_affine_system(args):
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
    ars = _require_affine_system(args)
    out = [R.root_json(ars, r) for r in R.real_roots_up_to_level(ars, args.level_bound)]
    _emit(args, _json(out))
    return 0


def _cmd_pairs(args) -> int:
    ars = _require_affine_system(args)
    roots = R.real_roots_up_to_level(ars, args.level_bound)
    out = [R.classification_json(ars, a, b) for a in roots for b in roots]
    _emit(args, _json(out))
    return 0


def _cmd_theta(args) -> int:
    ars = _require_affine_system(args)
    alpha, beta = _parse_root(args.alpha), _parse_root(args.beta)
    roots = sorted(R.theta(ars, alpha, beta))
    _emit(args, _json([R.root_json(ars, r) for r in roots]))
    return 0


def _cmd_constants(args) -> int:
    from . import chevalley

    a = _read_diagram(args.diagram)
    cls = diagrams.classify(a)
    if cls.kind != "finite":
        raise ValueError("structure constants are computed for finite diagrams")
    system = R.enumerate_finite_roots(a, cls.family)
    basis = chevalley.build_chevalley_basis(system)
    lines = []
    for x in system.roots:
        for y in system.roots:
            n = basis.n(x, y)
            if n:
                lines.append(
                    f"N {','.join(map(str, x))} {','.join(map(str, y))} {n}"
                )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _presentation_options(args) -> presentation.PresentationOptions:
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
    a = _read_diagram(args.diagram)
    ring = rings.parse_descriptor(args.ring)
    pres = presentation.relators_for(a, ring, _presentation_options(args))
    _emit(args, presentation.emit(pres, args.format))
    return 0


def _cmd_amalgam(args) -> int:
    a = _read_diagram(args.diagram)
    ring = rings.parse_descriptor(args.ring)
    pres = presentation.amalgam(a, ring, _presentation_options(args))
    _emit(args, presentation.emit(pres, args.format))
    return 0


def _cmd_replay(args) -> int:
    result = collection.replay_case(args.case, args.eps, args.eps_prime)
    _emit(args, str(result) + "\n" + collection.verdict(result) + "\n")
    return 0


def _cmd_verify(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinberg",
        description="Affine Steinberg/Kac-Moody presentations: roots, constants, "
        "relation files and exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, diagram=True, ring=False, level=False):
        if diagram:
            p.add_argument("--diagram", required=True,
                           help="family label (A~2, BC~3^odd, B3, ...) or matrix file")
        if ring:
            p.add_argument("--ring", required=True,
                           help="ring descriptor (Z, Z/5, GF(7), Z[t,u], Z/5[t^+-1])")
        if level:
            p.add_argument("--level-bound", type=int, default=2)
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker budget; outputs never depend on it")

    p = sub.add_parser("classify", help="recognize a diagram")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("names", help="Moody-Pianzola and Kac names of an affine label")
    common(p)
    p.set_defaults(fn=_cmd_names)

    p = sub.add_parser("roots", help="real roots up to a level bound, as JSON")
    common(p, level=True)
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("pairs", help="pair classification report, as JSON")
    common(p, level=True)
    p.set_defaults(fn=_cmd_pairs)

    p = sub.add_parser("theta", help="the root string (N a + N b) of a pair")
    common(p)
    p.add_argument("--alpha", required=True, help="root as coords@level, e.g. 1,0@0")
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("constants", help="structure constant table of a finite diagram")
    common(p)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("present", help="emit the full presentation")
    common(p, ring=True)
    p.add_argument("--format", choices=("native", "gap", "json"), default="native")
    p.add_argument("--torus", action="store_true", help="force the torus-action families")
    p.add_argument("--no-torus", action="store_true", help="omit the torus-action families")
    p.add_argument("--km-torus", action="store_true",
                   help="adjoin the torus relations of the Kac-Moody quotient")
    p.set_defaults(fn=_cmd_present)

    p = sub.add_parser("amalgam", help="emit the rank-at-most-2 amalgam presentation")
    common(p, ring=True)
    p.add_argument("--format", choices=("native", "gap", "json"), default="native")
    p.add_argument("--torus", action="store_true")
    p.add_argument("--no-torus", action="store_true")
    p.add_argument("--km-torus", action="store_true")
    p.set_defaults(fn=_cmd_amalgam)

    p = sub.add_parser("replay", help="replay one of the commutation arguments")
    p.add_argument("--case", type=int, required=True, choices=collection.CASE_IDS,
                   help="1-7, or 8 for the 0mod3 variant of case 4")
    p.add_argument("--eps", type=int, default=1, choices=(1, -1))
    p.add_argument("--eps-prime", type=int, default=1, choices=(1, -1))
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("verify", help="verify every relation instance in the loop model")
    common(p, ring=True, level=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("hypotheses", help="finite-presentability hypothesis check")
    common(p)
    p.add_argument("--fg-ring", action="store_true",
                   help="assert: the ring is finitely generated as a ring")
    p.add_argument("--module-finite", action="store_true",
                   help="assert: finitely generated module over a unit-generated subring")
    p.add_argument("--units-fg", action="store_true",
                   help="assert: the unit group is finitely generated")
    p.set_defaults(fn=_cmd_hypotheses)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
