"""Repository tooling: the CI install step and the package's test extra."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def workflow_pins():
    """The name==version pins of the CI workflow's pip install step."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (line,) = [ln for ln in text.splitlines()
               if re.match(r"\s*run:\s*python -m pip install ", ln)]
    return re.findall(r"\S+==\S+", line)


def extra_pins():
    """The requirements of pyproject.toml's `test` extra (read as text: the
    package supports Python 3.10, which has no tomllib)."""
    text = (ROOT / "pyproject.toml").read_text()
    extras = text.split("[project.optional-dependencies]", 1)[1].split("\n[", 1)[0]
    (body,) = re.findall(r"^test\s*=\s*\[(.*?)\]", extras, flags=re.M | re.S)
    return re.findall(r'"([^"]+)"', body)


def test_ci_installs_the_test_extra_pins():
    # the golden fixtures depend on the last bits of the pinned numpy, so
    # CI must test with exactly the versions the extra pins
    ci, extra = workflow_pins(), extra_pins()
    assert extra and all("==" in req for req in extra), extra
    assert sorted(ci) == sorted(extra)
