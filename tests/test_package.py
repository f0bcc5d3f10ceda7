"""The package surface: lazy exports, the README's library examples, the
CLI's one-thread BLAS pin, and the premise of that pin, that greenvar calls
no BLAS routine.

Import effects are checked in fresh interpreters, since this one has numpy
loaded already.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import greenvar

SRC = Path(greenvar.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
BLAS_ENV = "OPENBLAS_NUM_THREADS"


def fresh_python(code: str, **env: str) -> dict:
    """Run code in a new interpreter that imports greenvar from this tree,
    without the caller's BLAS setting unless env gives one; code prints JSON."""
    child_env = {k: v for k, v in os.environ.items() if k != BLAS_ENV}
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    child_env.update(env)
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_cli_process_runs_one_thread():
    # A command loads numpy only after its arguments are parsed; once it has
    # run, the process still has one thread.
    state = fresh_python(
        "import contextlib, io, json, os, sys, greenvar.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    greenvar.cli.main(['green', '--family', 't', '--n', '2', '--a', '1,1',"
        " '--relation', 'r'])\n"
        "print(json.dumps(['numpy' in sys.modules, len(os.listdir('/proc/self/task')),"
        f" os.environ.get({BLAS_ENV!r})]))"
    )
    assert state == [True, 1, "1"]


def test_cli_keeps_the_callers_blas_threads():
    state = fresh_python(
        f"import json, os, greenvar.cli\nprint(json.dumps(os.environ.get({BLAS_ENV!r})))",
        **{BLAS_ENV: "2"},
    )
    assert state == "2"


def test_package_import_loads_no_numpy():
    state = fresh_python(
        "import json, os, sys, greenvar\n"
        f"print(json.dumps(['numpy' in sys.modules, os.environ.get({BLAS_ENV!r})]))"
    )
    assert state == [False, None]


def test_every_export_resolves():
    namespace: dict = {}
    exec("from greenvar import *", namespace)
    for name in greenvar.__all__:
        assert namespace[name] is getattr(greenvar, name), name
    assert set(greenvar.__all__) <= set(dir(greenvar))
    with pytest.raises(AttributeError):
        greenvar.r_class_t  # noqa: B018  (per-element wrappers are gone)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def test_no_blas_calls_in_the_package():
    # The CLI pins BLAS to one thread on the premise that nothing here uses it.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# ---------------------------------------------------------------------------
# the CLI's import graph

# Prints, as JSON, the greenvar modules whose bodies `greenvar ARGV`
# executed, in order, with numpy, json and csv if the run imported them,
# and the greenvar modules registered after `import greenvar.cli`.  A
# module body is one `exec` audit event of a code object named <module>.
# json is imported only after the run, to print.
EXECUTED = """
import contextlib, io, pathlib, sys
executed = []
def hook(event, args):
    code = args[0] if event == "exec" else None
    if getattr(code, "co_name", None) == "<module>":
        path = pathlib.Path(code.co_filename)
        if path.parent.name == "greenvar":
            executed.append(path.stem)
sys.addaudithook(hook)
import greenvar.cli
registered = sorted(m for m in sys.modules if m.split(".")[0] == "greenvar")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        greenvar.cli.main(ARGV)
    except SystemExit:
        pass
executed += [m for m in ("numpy", "json", "csv") if m in sys.modules]
import json
print(json.dumps([executed, registered]))
"""

EAGER = {"__init__", "cli"}  # what `import greenvar.cli` executes
# What reading a command's handler executes: green, or commands, which
# imports green, and numpy, elements and classes, which green imports.
GREEN = {"green", "elements", "classes", "numpy"}
COMMANDS = GREEN | {"commands"}

# command -> the modules its run executes beyond EAGER, and json or csv
# where it writes that format.  Help and usage errors read no handler.
IMPORT_GRAPH = {
    ("--help",): set(),
    ("green", "--help"): set(),
    ("verify", "--family", "t", "--n", "0", "--all-a"): set(),
    ("green", "--family", "is", "--n", "3", "--a", "1,2,-", "--relation", "d",
     "--method", "closed"): GREEN | {"closedform_is"},
    ("green", "--family", "t", "--n", "3", "--a", "1,1,2", "--relation", "r",
     "--method", "closed", "--mode", "both", "--format", "json"):
        GREEN | {"closedform_t", "json"},
    ("green", "--family", "t", "--n", "3", "--a", "1,1,2", "--relation", "d",
     "--method", "closed", "--format", "csv"): GREEN | {"closedform_t"},
    ("green", "--family", "t", "--n", "3", "--a", "1,1,2", "--relation", "j"):
        GREEN | {"engine"},
    ("green", "--family", "is", "--n", "3", "--a", "1,2,-", "--relation", "h"):
        GREEN | {"engine", "closedform_is"},
    ("eggbox", "--family", "t", "--n", "3", "--a", "2,2,1"): COMMANDS | {"engine"},
    ("eggbox", "--family", "is", "--n", "3", "--a", "1,2,-", "--format", "json"):
        COMMANDS | {"engine", "json"},
    ("count", "--family", "is", "--n", "3", "--a", "1,2,-"):
        COMMANDS | {"closedform_is", "counts", "engine"},
    ("count", "--family", "t", "--n", "3", "--sample", "2"):
        COMMANDS | {"closedform_t", "counts", "engine"},
    ("count", "--family", "t", "--n", "3", "--a", "1,1,2", "--format", "csv"):
        COMMANDS | {"closedform_t", "counts", "engine", "csv"},
    ("verify", "--family", "t", "--n", "2", "--all-a"):
        COMMANDS | {"closedform_t", "counts", "engine"},
    ("verify", "--family", "is", "--n", "2", "--all-a", "--format", "json"):
        COMMANDS | {"closedform_is", "counts", "engine", "json"},
    ("iso", "--n", "3", "--a", "1,2,-", "--b", "-,1,2"): COMMANDS | {"structure", "engine"},
    ("dual", "--n", "2", "--all-a", "--format", "json"):
        COMMANDS | {"structure", "engine", "json"},
}


@pytest.mark.parametrize("argv", list(IMPORT_GRAPH), ids=" ".join)
def test_each_command_executes_only_the_modules_it_runs(argv):
    # So help and usage errors load no numpy and run no module body beyond
    # the parser's; closed-form green runs no engine, structure or commands,
    # and a family's closed form not the other family's; eggbox, iso and dual
    # no closed form; green, eggbox and count no structure; only count and
    # verify the count audit; text, DOT and green's CSV neither json nor csv.
    executed, registered = fresh_python(EXECUTED.replace("ARGV", repr(list(argv))))
    assert len(set(executed)) == len(executed), f"a module body ran twice: {executed}"
    assert set(executed) == EAGER | IMPORT_GRAPH[argv]
    # The span tracer looks every module up in sys.modules right after
    # `import greenvar.cli`, so the lazy ones are registered before they run.
    modules = {f"greenvar.{path.stem}" for path in SRC.glob("*.py")}
    assert set(registered) == modules - {"greenvar.__init__", "greenvar.__main__"} | {"greenvar"}


def test_lazy_module_bodies_import_nothing_new():
    # The span tracer reads attributes of every greenvar module while it
    # walks sys.modules, and reading one executes its body; a body that
    # imported a greenvar module not registered by then would be missed by
    # the walk.  The first body to run imports numpy, which a process that
    # only imported greenvar.cli has not loaded.
    added = fresh_python(
        "import sys, greenvar.cli\n"
        "before = set(sys.modules)\n"
        "for name in sorted(before):\n"
        "    if name.startswith('greenvar.'):\n"
        "        getattr(sys.modules[name], '__doc__')\n"
        "added = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(added))"
    )
    assert "numpy" in added
    assert [m for m in added if m.split(".")[0] == "greenvar"] == []


# ---------------------------------------------------------------------------
# the collector of a caller that imports greenvar.cli and passes argv

# Runs SETUP, imports greenvar.cli, then runs a closed-form green through
# main(argv), which imports numpy, elements, classes and green, and prints,
# as JSON, main's exit code, whether numpy was loaded after the import and
# after main, and the collector's state (enabled, freeze count) before the
# import, after it and after main.
COLLECTOR = """
import contextlib, gc, io, json, sys
SETUP
states = [[gc.isenabled(), gc.get_freeze_count()]]
import greenvar.cli
loaded = ["numpy" in sys.modules]
states.append([gc.isenabled(), gc.get_freeze_count()])
with contextlib.redirect_stdout(io.StringIO()):
    code = greenvar.cli.main(["green", "--family", "t", "--n", "3", "--a", "1,1,2",
                              "--relation", "d", "--method", "closed"])
loaded.append("numpy" in sys.modules)
states.append([gc.isenabled(), gc.get_freeze_count()])
print(json.dumps([code, loaded, states]))
"""


@pytest.mark.parametrize("setup", ["", "gc.disable()"], ids=["enabled", "disabled"])
def test_cli_import_and_main_with_argv_keep_the_callers_collector(setup):
    # Neither the import nor main(argv) pauses, enables or freezes anything:
    # the collector stays as the caller set it, with nothing frozen.
    code, loaded, states = fresh_python(COLLECTOR.replace("SETUP", setup))
    assert code == 0 and loaded == [False, True]
    assert states == [[setup == "", 0]] * 3


def test_cli_import_keeps_the_callers_frozen_heap():
    code, loaded, states = fresh_python(COLLECTOR.replace("SETUP", "gc.freeze()"))
    (enabled, frozen), *after = states
    assert code == 0 and loaded == [False, True]
    assert enabled and frozen > 0
    assert after == [[True, frozen]] * 2
