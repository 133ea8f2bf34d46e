"""p-value uniformity of every procedure on a strong reference generator.

Uses the shared 100-run reference report (PCG64 stream, fixed seed): on
ideal input each test's p-values should look uniform on [0, 1].
"""

import hashlib

import pytest
from scipy.stats import kstest

from conftest import REFERENCE_RUNS
from tickrng.formats import write_report
from tickrng.suite import TestId


def pvalues_for(report, test_id):
    values = [e.p_value for e in report.entries if e.test_id is test_id and e.applicable]
    assert len(values) == REFERENCE_RUNS
    return values


@pytest.mark.parametrize("test_id", list(TestId), ids=[t.value for t in TestId])
def test_pvalues_are_uniform_on_reference_stream(reference_report, test_id):
    result = kstest(pvalues_for(reference_report, test_id), "uniform")
    assert result.pvalue > 0.001


@pytest.mark.parametrize(
    "test_id", [TestId.CUSUM_FORWARD, TestId.CUSUM_REVERSE, TestId.DFFT],
    ids=["CusumForward", "CusumReverse", "DFFT"],
)
def test_single_run_pass_rate_on_reference_stream(reference_report, test_id):
    passes = sum(
        1
        for e in reference_report.entries
        if e.test_id is test_id and e.applicable and e.p_value >= 0.01
    )
    assert passes >= 98


def test_reference_report_is_fully_applicable(reference_report):
    assert len(reference_report.entries) == 13 * REFERENCE_RUNS
    assert all(e.applicable for e in reference_report.entries)


def test_reference_report_digest_is_pinned(reference_report, tmp_path):
    """SHA-256 of the 1300-row CSV report of the reference stream.  The
    digest was taken when the chi-square and normal tails came from
    ``scipy.special``, so it holds the closed-form tails to every printed
    p-value and pass flag."""
    path = tmp_path / "report.csv"
    write_report(reference_report, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "744427b7c1d0fe5cedbdda53729267f6a0a2c7b5b1b109bafc0ac7913b450268"
    )
