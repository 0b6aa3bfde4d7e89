"""Re-check an ``is_nec`` verdict from its witness log, independently of the engines.

A holding verdict's certificate is a correctly joined witness for every
(S, T) pair.  A failing verdict's certificate is a witness for every pair
before the counterexample, in the checker's order, plus a search that finds
no witness for the counterexample itself; together they prove the verdict
and that the counterexample is the least one.  The check leans only on
``correctly_joined``, ``find_witness`` and ``itertools.combinations``.
"""

import itertools

from hyperec.checker import CheckerUsageError, correctly_joined, find_witness


def certificate_errors(hg, n, holds, counterexample, log):
    """Every way in which the log fails to certify the verdict; empty when it does."""
    errors = []
    checked = 0
    for s in itertools.combinations(range(hg.m), n):
        for tmask in range(1 << n):
            t = tuple(v for i, v in enumerate(s) if (tmask >> i) & 1)
            if (s, t) == counterexample:
                if holds:
                    errors.append("a holding verdict names a counterexample")
                if find_witness(hg, s, t) is not None:
                    errors.append(f"counterexample {(s, t)} has a witness")
                if len(log) != checked:
                    errors.append("the log has pairs at or after the counterexample")
                return errors
            x = log.get((s, t))
            if x is None:
                return errors + [f"no witness logged for {(s, t)} before the counterexample"]
            try:
                joined = correctly_joined(hg, x, t, s)
            except CheckerUsageError:  # X of the wrong size, or meeting S
                joined = False
            if not joined:
                errors.append(f"{x} is not correctly joined for {(s, t)}")
            checked += 1
    if not holds or counterexample is not None:
        errors.append("every pair has a witness, yet the verdict fails")
    if len(log) != checked:
        errors.append("the log has pairs the scan does not visit")
    return errors
