"""Start-up loads only what the command needs.

``import aggkit.cli`` loads what argument parsing, loading and the report
writer need; each command loads its reading when it is dispatched.  The
package resolves its submodules and exports lazily, and ``from aggkit
import *`` and every name in ``aggkit.__all__`` still resolve.  A fresh
interpreter lists the aggkit modules it has loaded when it exits, from
a ``sitecustomize`` put first on its path.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aggkit

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# What parsing, loading and the report writer need.
START = {"aggkit", "aggkit.cli", "aggkit.errors", "aggkit.fileio", "aggkit.geometry", "aggkit.model"}
READINGS = {"aggkit.belief", "aggkit.choice", "aggkit.recovery", "aggkit.social", "aggkit.testkit"}
SITECUSTOMIZE = """\
import atexit, os, sys

def _loaded():
    with open(os.environ["AGGKIT_LOADED"], "w", encoding="utf-8") as fh:
        fh.write("\\n".join(m for m in sys.modules if m.split(".")[0] == "aggkit"))

atexit.register(_loaded)
"""


@pytest.fixture()
def loaded_by(tmp_path):
    """The aggkit modules a fresh ``python *argv`` has loaded when it exits."""
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    paths = [str(tmp_path), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), AGGKIT_LOADED=str(tmp_path / "loaded"))

    def run(*argv: str) -> set[str]:
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 1), proc.stderr
        return set(filter(None, (tmp_path / "loaded").read_text(encoding="utf-8").split("\n")))

    return run


@pytest.mark.parametrize("code", ["import aggkit.cli", "from aggkit import cli"])
def test_importing_the_cli_loads_no_reading(loaded_by, code):
    assert loaded_by("-c", code) == START


def test_check_loads_no_reading(loaded_by, tmp_path):
    out = tmp_path / "report.json"
    loaded = loaded_by("-m", "aggkit", "check", str(FIXTURES / "triangle_two_tier.json"), "--out", str(out))
    assert loaded == START
    assert out.exists()


@pytest.mark.parametrize(
    "command, fixture, readings",
    [
        ("recover", "triangle_two_tier.json", {"aggkit.recovery"}),
        ("luce", "menu_luce.json", {"aggkit.choice", "aggkit.recovery"}),
        ("bayes", "coin_beliefs.json", {"aggkit.belief", "aggkit.recovery"}),
        ("pareto", "profile_committee.json", {"aggkit.social", "aggkit.recovery"}),
        ("gen", "--seed=1", {"aggkit.testkit"}),
    ],
)
def test_each_command_loads_its_reading_on_dispatch(loaded_by, tmp_path, command, fixture, readings):
    out = tmp_path / "report.json"
    target = fixture if fixture.startswith("--") else str(FIXTURES / fixture)
    loaded = loaded_by("-m", "aggkit", command, target, "--out", str(out))
    assert loaded & READINGS == readings


def test_a_private_or_unknown_name_loads_nothing(loaded_by):
    code = "import aggkit; assert not hasattr(aggkit, '_probe'); assert not hasattr(aggkit, '__wrapped__')"
    assert loaded_by("-c", code) == {"aggkit"}


def test_star_import_and_every_export_resolve():
    namespace: dict = {}
    exec("from aggkit import *", namespace)
    assert set(aggkit.__all__) <= set(namespace)
    for module in ("belief", "choice", "errors", "fileio", "geometry", "model", "recovery", "social", "testkit"):
        lib = importlib.import_module(f"aggkit.{module}")
        for name in lib.__all__:
            assert getattr(aggkit, name) is getattr(lib, name) is namespace[name]
    assert set(aggkit.__all__) <= set(dir(aggkit))


@pytest.mark.parametrize("name", ["no_such_name", "_exports_of", "cli_main"])
def test_a_name_that_is_no_export_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(aggkit, name)
