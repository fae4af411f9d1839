"""Repository tooling: the CI install step and Python version, the
package's test extra, its runtime dependencies and the checked-in golden
fixtures."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def workflow_pins():
    """The name==version pins of the CI workflow's pip install step."""
    (line,) = [ln for ln in WORKFLOW.splitlines()
               if re.match(r"\s*run:\s*python -m pip install ", ln)]
    return re.findall(r"\S+==\S+", line)


def test_ci_installs_the_test_extra_pins():
    # the golden fixtures depend on the last bits of the pinned numpy, so
    # CI must test with exactly the versions the extra pins
    ci, extra = workflow_pins(), PROJECT["optional-dependencies"]["test"]
    assert extra and all("==" in req for req in extra), extra
    assert sorted(ci) == sorted(extra)


def test_ci_tests_the_python_floor():
    # the one Python that CI runs is the lowest the package claims; numpy
    # 2.4.6, the test extra's pin, needs Python 3.11 or later
    (version,) = re.findall(r'python-version:\s*"([^"]+)"', WORKFLOW)
    assert PROJECT["requires-python"] == f">={version}"


def runtime_dependencies():
    """The distribution names in pyproject.toml's [project] dependencies."""
    return {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0]
            for req in PROJECT["dependencies"]}


def third_party_imports():
    """The top-level modules imported anywhere under src/ (inside functions
    too) that are neither the standard library's nor the package's own."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"twocolor_hhg"}


def test_runtime_dependencies_are_the_imports():
    # a module imported under src/ but not declared breaks a plain install;
    # one declared but not imported is a dependency nothing needs
    assert third_party_imports() == runtime_dependencies()


def test_golden_fixtures_are_documented_and_used():
    # a fixture directory that no test reads, or whose regeneration the
    # README does not give, is a stale artifact
    data = ROOT / "tests" / "data"
    readme = (data / "README.md").read_text()
    tests = "".join(path.read_text() for path in (ROOT / "tests").glob("test_*.py"))
    names = sorted(path.name for path in data.glob("golden_*") if path.is_dir())
    assert names
    for name in names:
        assert f"`{name}/`" in readme, name
        assert f'"{name}"' in tests, name


def test_the_dme_form_is_a_field_of_the_target_only():
    # TargetParams.dme_form picks the matrix element of the saddle sum and
    # of the oracle alike; a function (exported or not, method or not) with
    # a form parameter of its own could pair a sum with another form's oracle
    takers = []
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = [a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                          *node.args.kwonlyargs)]
                if {"dme_form", "form"} & set(params):
                    takers.append(f"{path.name}:{node.name}")
    assert takers == []


def test_the_partners_are_built_in_two_places():
    # the pipelines carry the representatives of one half-cycle; classify
    # builds each labelled period's partners and solve_cycle its public
    # list, so no other function under src/ can build them again or drop them
    callers = []

    def visit(node, owner):
        """Record each with_partners call under ``node`` as made by
        ``owner``, the innermost function holding it."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "with_partners":
                    callers.append(owner)
            visit(child, owner)

    for path in (ROOT / "src").rglob("*.py"):
        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    assert sorted(callers) == ["saddle.solve_cycle", "taxonomy.classify"]
