"""Acceptance gate: one timed pass/fail line per criterion.

Criteria 1 through 8 run in-process through the verification suite with the
default seed; criterion 9 runs the packaged verify-paper command end to end
as a subprocess.  Each test prints exactly one line in the shared report
format so a -s run reads as the acceptance table.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from cmgraphs.verification import DEFAULT_SEED, run_all

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def results():
    return {res.number: res for res in run_all(DEFAULT_SEED)}


def report(res):
    status = "pass" if res.passed else "FAIL"
    if res.passed and res.elapsed > res.budget:
        status = "SLOW"
    line = (
        f"criterion {res.number} [{status}] {res.name}: {res.detail}"
        f" ({res.elapsed:.2f}s of {res.budget:.0f}s budget)"
    )
    print(line)
    assert res.passed, line
    assert res.elapsed <= res.budget, line


def test_criterion_1_sample_reproduction(results):
    report(results[1])


def test_criterion_2_linear_quotients(results):
    report(results[2])


def test_criterion_3_dual_oracle_equivalence(results):
    report(results[3])


def test_criterion_4_composite_relation(results):
    report(results[4])


def test_criterion_5_cohen_macaulay_suite(results):
    report(results[5])


def test_criterion_6_edge_count_identity(results):
    report(results[6])


def test_criterion_7_resolution_certificates(results):
    report(results[7])


def test_criterion_8_structural_identities(results):
    report(results[8])


def run_verify_paper(*extra):
    return subprocess.run(
        [sys.executable, "-m", "cmgraphs.cli", "verify-paper", *extra],
        capture_output=True,
        text=True,
    )


def test_criterion_9_verify_paper_end_to_end():
    start = time.perf_counter()
    proc = run_verify_paper()
    elapsed = time.perf_counter() - start
    passed = proc.returncode == 0 and elapsed < 600
    status = "pass" if passed else "FAIL"
    print(f"criterion 9 [{status}] verify-paper end to end: exit {proc.returncode} ({elapsed:.2f}s of 600s budget)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 600
    assert "overall: pass" in proc.stdout


def test_verify_paper_reports_are_seed_deterministic():
    first = run_verify_paper("--seed", "42")
    second = run_verify_paper("--seed", "42")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    # the committed report: a change to any verdict or count shows here
    assert first.stdout == (DATA / "verify_paper_seed42.txt").read_text()
