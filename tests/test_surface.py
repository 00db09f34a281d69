"""Each public surface is stated once: the CLI command table, the module
export lists, and the command lines the README promises.  Every export
has a use: the package, the benchmark or a README example names it."""

import ast
import contextlib
import importlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

import aggkit
from aggkit import cli

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ("belief", "choice", "errors", "fileio", "geometry", "model", "recovery", "social", "testkit")
MODULES = LIBRARY + ("cli",)


def defined_names(module) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_report_schema_names_the_command_table():
    schema = json.loads((ROOT / "src/aggkit/schemas/report.schema.json").read_text())
    assert schema["properties"]["command"]["enum"] == list(cli.COMMANDS)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_its_own_names(name):
    module = importlib.import_module(f"aggkit.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= defined_names(module)


def test_package_exports_are_the_disjoint_module_lists():
    lists = [importlib.import_module(f"aggkit.{name}").__all__ for name in MODULES]
    everything = [n for names in lists for n in names]
    assert len(everything) == len(set(everything))
    library = [n for name in LIBRARY for n in importlib.import_module(f"aggkit.{name}").__all__]
    assert aggkit.__all__ == library
    for name in aggkit.__all__:
        assert getattr(aggkit, name) is not None


def test_gen_policy_choices_are_the_generator_policies():
    # cli states them itself, so that parsing never loads testkit.
    gen = cli._build_parser()._subparsers._group_actions[0].choices["gen"]
    (policy,) = [a for a in gen._actions if a.dest == "policy"]
    assert policy.choices == [p.value for p in aggkit.testkit.OutcomePolicy]


def test_every_package_error_is_exported():
    errors = aggkit.errors
    defined = {
        name for name in defined_names(errors)
        if isinstance(getattr(errors, name), type) and issubclass(getattr(errors, name), errors.AggkitError)
    }
    assert defined <= set(errors.__all__)
    assert all(getattr(aggkit, name) is getattr(errors, name) for name in defined)


def names_read(path: Path) -> set[str]:
    """Names a module reads, as variables or attributes, outside the
    top-level definition that binds the same name."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        read = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        read.discard(getattr(top, "name", None))
        names |= read
    return names


def readme_code_blocks(language: str = r"\w*") -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.S | re.M)


def test_every_export_is_named_by_the_package_the_bench_or_the_readme():
    read = set().union(*map(names_read, (ROOT / "src/aggkit").glob("*.py")))
    text = "\n".join(
        [p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")] + readme_code_blocks()
    )
    unused = [
        name
        for name in aggkit.__all__
        if name not in aggkit.testkit.__all__
        and name not in read
        and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert unused == []


@pytest.mark.parametrize("index", range(len(readme_code_blocks("python"))))
def test_readme_python_example_runs(index):
    code = compile(readme_code_blocks("python")[index], f"README python block {index}", "exec")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {})


def readme_examples():
    pattern = re.compile(r"^aggkit (.+?)\s+# exit (\d)\b")
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return [(m.group(1), int(m.group(2))) for m in map(pattern.match, lines) if m]


def test_readme_lists_its_examples():
    assert len(readme_examples()) == 14


@pytest.mark.parametrize("command,code", readme_examples())
def test_readme_example_exit_code(command, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(shlex.split(command)) == code
    assert json.loads(out.getvalue())["exit_code"] == code
