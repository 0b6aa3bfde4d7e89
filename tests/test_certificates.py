"""Certificates for verdicts the naive engine is too slow to re-derive."""

import pytest
from certificates import certificate_errors

from hyperec import builders, designs
from hyperec.checker import is_nec


@pytest.fixture(scope="module")
def mols7():
    return builders.build_from_mols(designs.complete_mols(7)).hypergraph


def certify(hg, n, threads=1):
    result = is_nec(hg, n, threads=threads, record_witnesses=True)
    errors = certificate_errors(hg, n, result.holds, result.counterexample, result.witness_log)
    return result, errors


@pytest.mark.parametrize("threads", [1, 2])
def test_mols7_n2_log_certifies_the_verdict(mols7, threads):
    result, errors = certify(mols7, 2, threads)
    assert result.holds and len(result.witness_log) == 4704  # C(49, 2) * 4
    assert errors == []


def test_mols7_n3_counterexample_is_certified_least(mols7):
    result, errors = certify(mols7, 3)
    assert result.counterexample == ((0, 1, 2), (0, 1))
    assert len(result.witness_log) == 3
    assert errors == []


def test_mols8_n2_log_certifies_the_verdict(mols8_build):
    result, errors = certify(mols8_build.hypergraph, 2)
    assert result.holds and len(result.witness_log) == 8064  # C(64, 2) * 4
    assert errors == []


def test_tampered_certificates_are_rejected(mols4_build):
    hg = mols4_build.hypergraph
    holding = is_nec(hg, 2, record_witnesses=True)
    log = holding.witness_log
    s = (0, 1)
    # X joined to neither vertex of S and X joined to both, exchanged.
    swapped = {**log, (s, ()): log[(s, s)], (s, s): log[(s, ())]}
    assert certificate_errors(hg, 2, True, None, swapped)
    dropped = dict(log)
    del dropped[(s, (1,))]
    assert certificate_errors(hg, 2, True, None, dropped)

    failing = is_nec(hg, 3, record_witnesses=True)
    s3, t3 = failing.counterexample
    assert (s3, t3) == ((0, 1, 2), (0, 1))
    assert certificate_errors(hg, 3, False, failing.counterexample, failing.witness_log) == []
    # Claim the next pair in the scan, logging some X for the real counterexample.
    late_log = {**failing.witness_log, (s3, t3): failing.witness_log[(s3, ())]}
    assert certificate_errors(hg, 3, False, (s3, (2,)), late_log)
