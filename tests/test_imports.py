"""Start-up budget: which modules a command loads, each in a fresh interpreter.

The package is pure Python: no command loads numpy, and only `verify` loads
the loop model.  No command loads `dataclasses` (and with it `inspect`) or
`fractions` (and with it `decimal`), and only `replay` loads
`steinberg.collection`.  No command loads `json`.  `import steinberg.cli`
loads neither `steinberg.jsonout` nor `steinberg.roots` nor
`steinberg.presentation`; each command loads only those of them that it
uses.  Only help and usage errors load `argparse`, and with it `gettext`
and `locale`.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import steinberg

SRC = str(pathlib.Path(steinberg.__file__).resolve().parents[1])

# modules no command may load, except steinberg.collection for replay;
# reported only if steinberg loaded them, not the interpreter's start-up
WATCHED = ["numpy", "dataclasses", "inspect", "fractions", "decimal", "steinberg.collection"]

# modules that only the commands using them may load; json is listed so
# that the budget below shows it is never loaded
LAZY = ["json", "steinberg.jsonout", "steinberg.presentation", "steinberg.roots"]

# argparse and what it loads to print help and errors; a well-formed command
# line is parsed without them
ARGPARSE = ["argparse", "gettext", "locale"]

# the snapshot comes first: the harness imports json only to report
CALL = """
import sys
before = set(sys.modules)
import contextlib, io
from steinberg import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
loaded = sorted(set({watched!r}) & set(sys.modules) - before)
import json
print(json.dumps([code, loaded]))
"""


def _run(source: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


@functools.lru_cache(maxsize=None)
def _call(argv: str) -> tuple[int, list[str]]:
    """The exit code of the command, and the modules of WATCHED, LAZY and
    ARGPARSE that it loads, sorted."""
    code, loaded = json.loads(
        _run(CALL.format(argv=argv.split(), watched=WATCHED + LAZY + ARGPARSE))
    )
    return code, loaded


def _loaded_by(argv: str) -> list[str]:
    code, loaded = _call(argv)
    assert code == 0, argv
    return loaded


def _watched_loaded_by(argv: str) -> list[str]:
    return [name for name in _loaded_by(argv) if name in WATCHED]


def test_cli_import_loads_neither_numpy_nor_the_loop_model():
    out = _run(
        "import sys, steinberg.cli\n"
        "print(sorted({'numpy', 'steinberg.loopmodel'} & set(sys.modules)))"
    )
    assert out.split() == ["[]"]


def test_cli_import_loads_no_watched_module():
    out = _run(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import steinberg.cli\n"
        f"print(sorted(set({WATCHED + LAZY + ARGPARSE!r}) & set(sys.modules) - before))"
    )
    assert out.split() == ["[]"]


COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        "classify --diagram A~2",
        "names --diagram BC~3^odd",
        "roots --diagram A~2 --level-bound 1",
        "pairs --diagram B~2^even --level-bound 1",
        "theta --diagram G~2 --alpha 1,0@0 --beta 0,1@0",
        "constants --diagram E8",
        "present --diagram A~2 --ring Z/2 --format gap",
        "amalgam --diagram A~2 --ring Z/3 --format gap",
        "hypotheses --diagram A~4 --fg-ring",
        "replay --case 1",
        "replay --case 4 --eps -1 --eps-prime 1",
        "replay --case 5",
        "replay --case 8",
        "verify --diagram A~2 --ring Z/2 --level-bound 0",
    ],
)


@COMMANDS
def test_command_runs_without_numpy(argv):
    assert "numpy" not in _watched_loaded_by(argv)


@COMMANDS
def test_command_loads_collection_only_to_replay(argv):
    expected = ["steinberg.collection"] if argv.startswith("replay") else []
    assert _watched_loaded_by(argv) == expected


ROOTS, PRESENTATION, JSONOUT = "steinberg.roots", "steinberg.presentation", "steinberg.jsonout"

# which of LAZY each command loads: jsonout to print JSON, roots for root
# data, presentation to emit or verify; the matrix of an affine label needs
# no roots, and no command loads json
LAZY_LOADS = {
    "classify --diagram A~2": [JSONOUT],
    "classify --diagram B3": [JSONOUT],
    "names --diagram BC~3^odd": [JSONOUT],
    "roots --diagram A~2 --level-bound 1": [JSONOUT, ROOTS],
    "pairs --diagram B~2^even --level-bound 1": [JSONOUT, ROOTS],
    "theta --diagram G~2 --alpha 1,0@0 --beta 0,1@0": [JSONOUT, ROOTS],
    "constants --diagram E8": [ROOTS],
    "present --diagram A~2 --ring Z/2 --format native": [PRESENTATION],
    "present --diagram A~2 --ring Z/2 --format gap": [PRESENTATION],
    "present --diagram A~2 --ring Z/2 --format json": [JSONOUT, PRESENTATION],
    "amalgam --diagram A~2 --ring Z/3 --format gap": [PRESENTATION],
    "hypotheses --diagram A~4 --fg-ring": [JSONOUT],
    "replay --case 1": [ROOTS],
    "replay --case 4 --eps -1 --eps-prime 1": [ROOTS],
    "replay --case 8": [ROOTS],
    "verify --diagram A~2 --ring Z/2 --level-bound 0": [JSONOUT, PRESENTATION, ROOTS],
}


@pytest.mark.parametrize("argv", sorted(LAZY_LOADS))
def test_command_loads_only_the_lazy_modules_it_uses(argv):
    assert [name for name in _loaded_by(argv) if name in LAZY] == LAZY_LOADS[argv]


@pytest.mark.parametrize("argv", sorted(LAZY_LOADS))
def test_command_loads_no_argparse(argv):
    assert [name for name in _loaded_by(argv) if name in ARGPARSE] == []


@pytest.mark.parametrize("argv,code", [("-h", 0), ("classify -h", 0), ("replay --case 9", 2)])
def test_help_and_usage_errors_go_through_argparse(argv, code):
    got, loaded = _call(argv)
    assert (got, "argparse" in loaded) == (code, True)


def test_verify_passes_with_numpy_blocked():
    # None in sys.modules makes every import of numpy raise ImportError
    out = _run(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from steinberg import cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = cli.main(['verify', '--diagram', 'A~2', '--ring', 'Z/3', '--level-bound', '1'])\n"
        "print(json.dumps([code, json.loads(buf.getvalue())['all_passed']]))\n"
    )
    assert json.loads(out) == [0, True]


def test_chevalley_and_collection_import_without_numpy():
    out = _run(
        "import sys, steinberg.chevalley, steinberg.collection\n"
        "print(sorted({'numpy', 'steinberg.loopmodel'} & set(sys.modules)))"
    )
    assert out.split() == ["[]"]


def test_submodules_resolve_on_first_use():
    out = _run(
        "import steinberg\n"
        "print(steinberg.loopmodel.LoopModel.__name__)\n"
        "try:\n"
        "    steinberg.nope\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    assert out.split() == ["LoopModel", "AttributeError"]
