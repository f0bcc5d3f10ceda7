"""The package surface: lazy exports, the CLI's one-thread BLAS pin, and the
premise of that pin, that greenvar calls no BLAS routine.

Import effects are checked in fresh interpreters, since this one has numpy
loaded already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import greenvar

SRC = Path(greenvar.__file__).resolve().parent
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
    state = fresh_python(
        "import json, os, greenvar.cli\n"
        f"print(json.dumps([len(os.listdir('/proc/self/task')), os.environ.get({BLAS_ENV!r})]))"
    )
    assert state == [1, "1"]


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
