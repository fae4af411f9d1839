"""Repository tooling: the CI install step and Python version, the
package's test extra, its runtime dependencies, version and console scripts,
the checked-in golden fixtures, and structural rules on src/."""

import ast
import importlib
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


def owners(hit):
    """The owner of each node under src/ for which ``hit(node)`` holds: the
    innermost function holding it, as 'module.function' (a method counts as
    a function of its module), or 'module.<module>'; sorted."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner.split('.')[0]}.{child.name}")
                continue
            if hit(child):
                found.append(owner)
            visit(child, owner)

    for path in (ROOT / "src").rglob("*.py"):
        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return sorted(found)


def calls(name):
    """A node test: a call of ``name``, plain or as an attribute."""
    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)) == name
    return hit


def reads(name):
    """A node test: a load of ``name``, plain or as an attribute."""
    def hit(node):
        return (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and name in (getattr(node, "id", None), getattr(node, "attr", None)))
    return hit


def test_the_partners_are_built_in_two_places():
    # the pipelines carry the representatives of one half-cycle; classify
    # builds each labelled period's partners and solve_cycle its public
    # list, so no other function under src/ can build them again or drop them
    assert owners(calls("with_partners")) == ["saddle.solve_cycle",
                                              "taxonomy.classify"]


def test_one_test_for_the_same_orbit_modulo_half_a_period():
    # dedup, branch tracking, the scan's refresh matching and the closest
    # approach all measure through one fold metric, and only match_branches
    # reads the matching tolerance, so there is one matching rule
    defs = [path.stem for path in (ROOT / "src").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "_fold_distance"]
    assert defs == ["saddle"]
    assert owners(calls("_fold_distance")) == [
        "saddle._dedup", "taxonomy.closest_approach", "taxonomy.match_branches"]
    assert owners(reads("MATCH_TOL_PERIODS")) == ["taxonomy.match_branches"]
    assert owners(calls("match_branches")) == ["phasescan.run_scan",
                                               "taxonomy.track_branches"]


def test_the_branch_support_rule_sets_the_history_pad():
    # the branch history runs as far past the range as the support rule
    # looks, so no constant of its own can drift from the rule
    assert all("HISTORY_PAD" not in path.read_text()
               for path in (ROOT / "src").rglob("*.py"))
    assert set(owners(reads("MIN_BRANCH_SUPPORT"))) == {"dipole.history_orders",
                                                        "taxonomy.relevance_mask"}


def test_threads_come_from_an_executor_and_one_function_forks():
    # the oracle's workers are a concurrent.futures executor's, joined when
    # it is left; the one fork checks that no other thread is alive first
    assert owners(calls("Thread")) == []
    assert owners(calls("fork")) == ["saddle._forked_newton_batch"]


def test_newton_runs_and_trial_points_have_one_path_each():
    # only the dense runs of solve_cycles fork; continuation batches stay
    # serial; and a trial point reaches the kernel only through the line
    # search (run is _forked_newton_batch's per-slice helper)
    assert owners(calls("_forked_newton_batch")) == ["saddle.solve_cycles"]
    assert owners(calls("_newton_batch")) == ["saddle._forked_newton_batch",
                                              "saddle.run", "saddle.solve_seeds"]
    assert owners(calls("_evaluate")) == ["saddle._line_search",
                                          "saddle._newton_batch"]


def test_the_version_and_console_scripts_resolve():
    # the package reports the version it is installed as, and each console
    # script names a callable that imports
    import twocolor_hhg

    assert twocolor_hhg.__version__ == PROJECT["version"]
    assert PROJECT["scripts"]
    for name, target in PROJECT["scripts"].items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
