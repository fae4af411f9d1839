"""Shared fixtures: the reference field configuration used across the suite.

800 nm fundamental at 1.5e14 W/cm^2 with an orthogonal second harmonic at
intensity ratio R = 0.12, argon target.  All values in atomic units.  The
labelled-orbit fixtures hold :func:`labelled_orbits` over an order range, so
relevance is judged as in the spectrum, on the branch history that runs
MIN_BRANCH_SUPPORT - 1 orders beyond the range (:func:`history_orders`).
"""

import dataclasses
import os
from typing import NamedTuple

import numpy as np
import pytest

from twocolor_hhg import (FieldParams, SaddlePoint, TargetParams, convert_units,
                          labelled_orbits)

LAMBDA_NM = 800.0
I1_WCM2 = 1.5e14
RATIO = 0.12
AR_IP = 0.5792

OMEGA, E1 = convert_units(LAMBDA_NM, I1_WCM2)


@pytest.fixture(scope="session")
def params():
    """Two-colour reference field at phi = 0."""
    return FieldParams.from_ratio(E1, OMEGA, RATIO, 0.0)


@pytest.fixture(scope="session")
def mono():
    """Monochromatic limit (R = 0) of the reference field."""
    return FieldParams.from_ratio(E1, OMEGA, 0.0, 0.0)


@pytest.fixture(scope="session")
def target():
    return TargetParams(Ip=AR_IP)


class LabelledOrbits(NamedTuple):
    by_q: dict      # order -> classify's (SaddlePoint, OrbitLabel) list
    audit: list     # relevance discards over all orders, in order


def labelled_run(p, tgt, qs):
    audit = []
    return LabelledOrbits(dict(labelled_orbits(p, tgt, qs, audit=audit)), audit)


def relevant(labelled):
    """The relevant (SaddlePoint, OrbitLabel) pairs of one order."""
    return [(sp, lab) for sp, lab in labelled if lab.relevant]


@pytest.fixture(scope="session")
def plateau_orbits(params, target):
    """Reference field, q = 20..25 (branch history over 20..27)."""
    return labelled_run(params, target, np.arange(20, 26))


@pytest.fixture(scope="session")
def wide_orbits(params, target):
    """Reference field, q = 16..26 (branch history over 16..28)."""
    return labelled_run(params, target, np.arange(16, 27))


@pytest.fixture(scope="session")
def mono_orbits(mono, target):
    """Monochromatic field, q = 20..35 (branch history over 20..37)."""
    return labelled_run(mono, target, np.arange(20, 36))


def assert_identical_fields(a, b):
    """Every SaddlePoint field of ``a`` and ``b`` holds the same bytes."""
    for f in dataclasses.fields(SaddlePoint):
        va, vb = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), f.name


def usable_cpus(mp, n):
    """Let the forked Newton runs and the oracle's executor see ``n`` usable
    CPUs: the oracle sums one t_r range per CPU, range 0 in the calling
    thread and the others on n - 1 worker threads."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Pass/fail lines recorded by the acceptance tests; echoed after the run so
# they are visible even with pytest's output capturing enabled.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
