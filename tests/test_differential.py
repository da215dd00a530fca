"""The differential check reports a one-byte change to one module."""

import json
import pathlib
import shutil
import sys

from steinberg import cli

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import differential  # noqa: E402

SRC = TOOLS.parent / "src"


def test_a_one_byte_change_is_reported(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    module = changed / "steinberg" / "cli.py"
    text = module.read_text()
    assert text.count('"rank": cls.rank') == 1
    module.write_text(text.replace('"rank": cls.rank', '"ranK": cls.rank'))
    calls = ["classify --diagram A~2", "names --diagram A~2", "classify --diagram E9"]
    differences = differential.compare(SRC, changed, calls)
    assert [call for call, _, _ in differences] == ["classify --diagram A~2"]
    (_, base, new), = differences
    assert base.exit == new.exit == 0 and base.stderr == new.stderr == ""
    assert base.stdout_sha256 != new.stdout_sha256
    assert base.stdout_bytes == new.stdout_bytes


def test_the_same_tree_is_equal_on_help_and_usage_errors():
    assert differential.compare(SRC, SRC, ["-h", "classify", "replay --case 9"]) == []


def test_the_corpus_holds_every_recorded_call_and_the_grammar_edges():
    calls = differential.corpus()
    assert len(calls) == len(set(calls))
    for path in (SRC.parent / "tests" / "golden" / "cli.json",
                 SRC.parent / "bench" / "expected.json"):
        assert set(json.loads(path.read_text())) <= set(calls)
    assert {"", "-h", *cli._SUBCOMMANDS, *differential.EDGE_CALLS} <= set(calls)
    assert len(set(differential.VERIFY_SWEEP)) == 98
    assert set(differential.VERIFY_SWEEP) <= set(calls)
    assert list(differential.PLAIN_CALLS) == list(cli._SUBCOMMANDS)
