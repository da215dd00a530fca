import json

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
    # Z/4294967311 would overflow the int64 products of the G~2 model, which
    # must be rejected before any of its 4294967311 parameters is enumerated
    def unreachable(*args, **kwargs):
        raise AssertionError("relators enumerated for an unsupported model")

    monkeypatch.setattr(presentation, "relators_for", unreachable)
    code, out, err = run(capsys, "verify", "--diagram", "G~2", "--ring", "Z/4294967311")
    assert code == 3 and out == ""
    assert "too large" in err


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
