import contextlib
import io
import json
import random

import pytest

from steinberg import cli, presentation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--diagram", "A~2")
    assert code == 0
    assert json.loads(out) == {"kind": "affine-untwisted", "label": "A~2", "rank": 3}


def test_classify_matrix_file(tmp_path, capsys):
    path = tmp_path / "diagram.txt"
    path.write_text("# comment\nrank 3\n2 -1 -1\n-1 2 -1\n-1 -1 2\n")
    code, out, _ = run(capsys, "classify", "--diagram", str(path))
    assert code == 0
    assert json.loads(out)["label"] == "A~2"


def test_labels_above_rank_12(capsys):
    code, out, _ = run(capsys, "classify", "--diagram", "D~12")
    assert code == 0
    assert json.loads(out) == {"kind": "affine-untwisted", "label": "D~12", "rank": 13}
    code, out, _ = run(capsys, "roots", "--diagram", "A~13", "--level-bound", "0")
    assert code == 0
    # the level-0 real roots of A~13 are the 14 * 13 roots of A13
    assert len(json.loads(out)) == 182


@pytest.mark.parametrize("label", ["A~35", "B~25", "C~25", "D~26"])
def test_labels_with_more_than_1200_finite_roots(capsys, label):
    code, out, _ = run(capsys, "classify", "--diagram", label)
    assert code == 0
    assert json.loads(out)["label"] == label


def test_constants_of_a_finite_type_with_more_than_1200_roots(capsys):
    code, out, _ = run(capsys, "constants", "--diagram", "A35")
    assert code == 0
    assert out.startswith("N ")


def test_names(capsys):
    code, out, _ = run(capsys, "names", "--diagram", "G~2^0mod3")
    assert code == 0
    assert json.loads(out) == {
        "ours": "G~2^0mod3", "moody_pianzola": "G_2^(3)", "kac": "D_4^(3)",
    }


def test_roots_counts(capsys):
    code, out, _ = run(capsys, "roots", "--diagram", "A~2", "--level-bound", "2")
    assert code == 0
    assert len(json.loads(out)) == 30


def test_theta(capsys):
    code, out, _ = run(
        capsys, "theta", "--diagram", "A~2", "--alpha", "1,0@0", "--beta", "0,1@0"
    )
    assert code == 0
    got = json.loads(out)
    assert len(got) == 3


def test_theta_negative_root_needs_equals_form(capsys):
    code, out, _ = run(
        capsys, "theta", "--diagram", "A~2", "--alpha", "1,1@0", "--beta=-1,0@0"
    )
    assert code == 0
    got = [(r["coords"], r["level"]) for r in json.loads(out)]
    assert got == [([-1, 0], 0), ([0, 1], 0), ([1, 1], 0)]
    code, out, err = run(
        capsys, "theta", "--diagram", "A~2", "--alpha", "1,1@0", "--beta", "-1,0@0"
    )
    assert (code, out) == (2, "")
    assert "argument --beta: expected one argument" in err


def test_constants(capsys):
    code, out, _ = run(capsys, "constants", "--diagram", "B2")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("N ") for line in lines)
    # antisymmetric table: the reversed pair carries the negated constant
    table = {}
    for line in lines:
        _, a, b, value = line.split()
        table[(a, b)] = int(value)
    for (a, b), v in table.items():
        assert table[(b, a)] == -v


def test_present_generator_count(capsys):
    code, out, _ = run(
        capsys, "present", "--diagram", "A~2", "--ring", "Z/2", "--format", "native"
    )
    assert code == 0
    gens = [line for line in out.splitlines() if line.startswith("gen ")]
    assert len(gens) == 9


def test_present_deterministic(capsys):
    args = ("present", "--diagram", "A~2", "--ring", "Z/2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_replay_case6(capsys):
    code, out, _ = run(capsys, "replay", "--case", "6")
    assert code == 0
    assert out == "X_{alpha+beta}(4*t*u)\nCONSTANT C=4\n"


def test_replay_case4_eps(capsys):
    code, out, _ = run(capsys, "replay", "--case", "4", "--eps", "-1", "--eps-prime", "1")
    assert code == 0
    assert "CONSTANT C=12" in out


def test_replay_case_choices_are_the_case_ids(capsys):
    # the parser names the cases without importing the collection engine
    from steinberg import collection

    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    case = next(a for a in sub.choices["replay"]._actions if a.dest == "case")
    assert tuple(case.choices) == collection.CASE_IDS
    for bad in ("0", "9"):
        code, out, err = run(capsys, "replay", "--case", bad)
        assert (code, out) == (2, "")
        assert "--case {1,2,3,4,5,6,7,8}" in err
        assert err.rstrip().endswith(
            f"argument --case: invalid choice: {bad} (choose from 1, 2, 3, 4, 5, 6, 7, 8)"
        )


def test_verify_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--diagram", "A~2", "--ring", "GF(2)", "--level-bound", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    families = {f["family"] for f in report["families"]}
    assert "weyl-conjugation" in families and "additivity" in families


def test_verify_twisted_unsupported(capsys):
    code, _, err = run(capsys, "verify", "--diagram", "BC~2^odd", "--ring", "Z/5")
    assert code == 3
    assert "error:" in err


def test_verify_infinite_edge_unsupported(capsys):
    code, out, err = run(capsys, "verify", "--diagram", "A~1", "--ring", "Z/3")
    assert code == 3 and out == ""
    assert "m = infinity" in err


def test_verify_int64_overflow_unsupported(capsys, monkeypatch):
    # Z/4294967311 is past the ring-size guard of the G~2 model,
    # 14 (n - 1)^2 >= 2^63, and must be rejected before any of its
    # 4294967311 parameters is enumerated
    def unreachable(*args, **kwargs):
        raise AssertionError("relators enumerated for an unsupported model")

    monkeypatch.setattr(presentation, "relators_for", unreachable)
    code, out, err = run(capsys, "verify", "--diagram", "G~2", "--ring", "Z/4294967311")
    assert code == 3 and out == ""
    assert "too large" in err


@pytest.mark.parametrize("label,reason", [
    ("E9", "no finite diagram E9"),
    ("A~0", "no affine diagram A~0"),
    ("G~3", "no affine diagram G~3"),
])
def test_invalid_label_reports_why(capsys, tmp_path, monkeypatch, label, reason):
    code, out, err = run(capsys, "classify", "--diagram", label)
    assert (code, out, err) == (2, "", f"error: {reason}\n")
    # a file of that name is still read
    monkeypatch.chdir(tmp_path)
    (tmp_path / label).write_text("rank 3\n2 -1 -1\n-1 2 -1\n-1 -1 2\n")
    code, out, _ = run(capsys, "classify", "--diagram", label)
    assert code == 0 and json.loads(out)["label"] == "A~2"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "--diagram", "H9")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "verify", "--diagram", "A~2", "--ring", "Z")
    assert code == 3  # infinite coefficient ring is an unsupported model


def test_hypotheses(capsys):
    code, out, _ = run(capsys, "hypotheses", "--diagram", "A~4", "--fg-ring")
    assert code == 0
    got = json.loads(out)
    assert got["verdict"] == "FinitelyPresentedCase_i"
    assert got["used_special_covering"] is False

    code, out, _ = run(capsys, "hypotheses", "--diagram", "C~3", "--fg-ring")
    got = json.loads(out)
    assert got["used_special_covering"] is True
    assert got["spherical_covering_holds"] is False


@pytest.mark.parametrize("label", ["A~2", "C~3", "A~4", "D~4"])
def test_hypotheses_decides_the_covering_once(monkeypatch, capsys, label):
    from steinberg import diagrams

    holds, calls = diagrams.spherical_covering_holds, []
    monkeypatch.setattr(diagrams, "spherical_covering_holds",
                        lambda a: calls.append(a) or holds(a))
    code, out, _ = run(capsys, "hypotheses", "--diagram", label)
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["spherical_covering_holds"] is holds(calls[0])


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run(
        capsys, "roots", "--diagram", "A~2", "--level-bound", "1", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())) == 18


def test_amalgam_emits(capsys):
    code, out, _ = run(capsys, "amalgam", "--diagram", "A~2", "--ring", "Z/2")
    assert code == 0
    assert out.startswith("ring Z/2")
    assert "torus-action" not in out


def test_negative_level_bound_rejected(capsys):
    for argv in (
        ("verify", "--diagram", "A~2", "--ring", "Z/2", "--level-bound", "-1"),
        ("roots", "--diagram", "A~2", "--level-bound", "-1"),
        ("pairs", "--diagram", "A~2", "--level-bound", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "--level-bound" in err


def test_verify_builds_one_model(capsys, monkeypatch):
    from steinberg import chevalley, loopmodel

    calls = []

    def count_inits(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            calls.append(cls.__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    count_inits(loopmodel.LoopModel)
    count_inits(chevalley.ChevalleyBasis)
    code, _, _ = run(capsys, "verify", "--diagram", "A~2", "--ring", "Z/3", "--level-bound", "1")
    assert code == 0
    assert sorted(calls) == ["ChevalleyBasis", "LoopModel"]


@pytest.mark.parametrize(
    "diagram,ring",
    [("A~2", "Z/4"), ("C~2", "Z/6"), ("G~2", "Z/4"), ("A~2", "Z/8"), ("C~2", "Z/9"), ("G~2", "Z/9")],
)
def test_verify_over_composite_rings(capsys, diagram, ring):
    # divided powers reduced mod a non-prime n: no division ever happens mod n
    code, out, _ = run(capsys, "verify", "--diagram", diagram, "--ring", ring, "--level-bound", "1")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert all(f["instances"] == f["passed"] > 0 for f in report["families"])


@pytest.mark.parametrize(
    "code,argv",
    [
        # 2: usage errors
        (2, "classify --diagram H9"),
        (2, "classify --diagram not-a-label-or-file"),
        (2, "roots --diagram A2"),
        (2, "pairs --diagram B3"),
        (2, "theta --diagram G2 --alpha 1,0@0 --beta 0,1@0"),
        (2, "constants --diagram A~2"),
        (2, "constants --diagram BC~2^odd"),
        (2, "present --diagram A~2 --ring Q/5"),
        (2, "amalgam --diagram A~2 --ring Z[t"),
        (2, "amalgam --diagram A~2 --ring Z[t][t]"),
        (2, "verify --diagram A~2 --ring Z/1"),
        (2, "theta --diagram A~2 --alpha x --beta 0,1@0"),
        (2, "theta --diagram A~2 --alpha 1,0@y --beta 0,1@0"),
        # 3: configurations the loop model does not cover
        (3, "verify --diagram BC~2^odd --ring Z/5"),
        (3, "verify --diagram A~2 --ring Z"),
        (3, "verify --diagram A~1 --ring Z/3"),
        (3, "present --diagram A~1 --ring Z/3"),
        (3, "amalgam --diagram A~1 --ring Z/3"),
    ],
)
def test_error_exit_codes(capsys, code, argv):
    got, out, err = run(capsys, *argv.split())
    assert (got, out) == (code, "")
    assert err.startswith("error:")


def _argparse_vars(parser, argv):
    """vars() of what argparse parses argv to, or None where it exits (help
    or a usage error)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


# values and tokens argparse reads in other ways than as a plain value
ODD_VALUES = ["-1", "-12", "-1,0@0", "-x", "", "1.5", "9", "0", "xml", "--", "-", "- 1",
              "--diag", "--help", "1_0", " 3", "\u0663", "-\u0663", "-\u00b2"]
ODD_TOKENS = ["-h", "--help", "--", "--diag", "-x", "", "extra", "--torus=1", "--out",
              "--jobs=", "--diagram=", "-1", "classify"]


def _plain_value(kwargs, rng) -> str:
    if "choices" in kwargs:
        return str(rng.choice(list(kwargs["choices"])))
    if kwargs.get("type") is int:
        return str(rng.randint(-2, 3))
    return rng.choice(["A~2", "Z/5", "1,0@0", "out.txt", "a=b"])


def _random_argv(rng, command) -> list[str]:
    """An option subset in any order, each in either value form, with
    repeats, odd values and odd tokens mixed in."""
    options = cli._SUBCOMMANDS[command][2]
    argv = [command]
    picked = rng.sample(options, len(options)) + rng.choices(options, k=rng.randint(0, 2))
    for flag, kwargs in picked:
        if rng.random() < 0.15:
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag if rng.random() < 0.9 else flag + "=1")
            continue
        value = _plain_value(kwargs, rng) if rng.random() < 0.8 else rng.choice(ODD_VALUES)
        argv += [flag, value] if rng.random() < 0.5 else [f"{flag}={value}"]
    if rng.random() < 0.2:
        argv.insert(rng.randint(0, len(argv)), rng.choice(ODD_TOKENS))
    return argv


@pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
def test_exact_parser_returns_what_argparse_returns(command):
    # every argv the exact parser takes, argparse takes and parses alike
    rng = random.Random(f"exact parser {command}")
    parser = cli.build_parser()
    taken = 0
    for _ in range(300):
        argv = _random_argv(rng, command)
        exact = cli.parse_exact(argv)
        if exact is not None:
            taken += 1
            assert vars(exact) == _argparse_vars(parser, argv), argv
    # the generator reaches both parsers' paths
    assert 60 <= taken <= 270


@pytest.mark.parametrize("argv", [
    "",
    "-h",
    "classify -h",
    "classify --help",
    "classify --diag A~2",
    "classify -- --diagram A~2",
    "classify --diagram A~2 extra",
    "classify --diagram",
    "classify --jobs 2",
    "present --diagram A~2 --ring Z --torus=1",
    "theta --diagram A~2 --alpha 1,0@0 --beta -1,0@0",
    "replay --case 9",
    "replay --case x",
    "replay --case 4 --eps -2",
    "present --diagram A~2 --ring Z --format xml",
    "nope --diagram A~2",
])
def test_exact_parser_leaves_help_and_malformed_input_to_argparse(argv):
    assert cli.parse_exact(argv.split()) is None
