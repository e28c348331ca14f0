"""Acceptance gate: every bundled-scenario criterion must pass at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line per
criterion (the same lines ``nosreg reproduce-example`` prints).
"""

import tempfile

import pytest

from nosreg.acceptance import run_all

CRITERIA = [
    "sylvester-reproduction",
    "gain-reproduction",
    "modal-coefficients",
    "pole-placement",
    "end-to-end-nonovershoot",
    "certificate-soundness-sweep",
    "quadrant-rule",
    "cubic-consistency",
    "search-performance",
    "determinism",
]


@pytest.fixture(scope="module")
def tempdir(tmp_path_factory):
    """The directory ``tempfile`` uses while ``results`` runs."""
    return tmp_path_factory.mktemp("acceptance-tmp")


@pytest.fixture(scope="module")
def results(tempdir):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tempfile, "tempdir", str(tempdir))
        return {r.name: r for r in run_all()}


def test_every_criterion_is_reported(results):
    assert sorted(results) == sorted(CRITERIA)


def test_run_leaves_no_temporary_files(results, tempdir):
    assert list(tempdir.iterdir()) == []


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(results, name):
    r = results[name]
    print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    assert r.passed, f"{r.name}: {r.detail}"
