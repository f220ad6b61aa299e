"""Golden answers for the ternary classification in degrees 4 and 5.

The digests pin every stratum of ``classify(4)`` and ``classify(5)``: its
label beta, its weight set Omega(beta), and for each family the maximal nice
subset, the particular critical masses (the LP vertex), the kernel and the
coefficient squares.  A change to the LP kernel, the mcc or the nice-subset
search that moves any of them, the vertex included, fails here.
"""

import hashlib

import pytest

from orbitforge.ternary import classify

CLASSIFY_SHA256 = {
    4: "9c47ed124194af06e9e93c1002c1b7ecbc147067fb758aebae3592bdc2e24982",
    5: "1a22bb80f0276759d3ac0411f4310dee2f9c71b4e51dd27a73856d8327608ace",
}


def _stratum_lines(d):
    for s in classify(d):
        yield repr((s.beta, s.omega, tuple(
            (f.weights, f.family.particular, f.family.kernel,
             f.family.coefficient_squares()) for f in s.families)))


@pytest.mark.parametrize("d", sorted(CLASSIFY_SHA256))
def test_classify_strata_are_unchanged(d):
    digest = hashlib.sha256("\n".join(_stratum_lines(d)).encode()).hexdigest()
    assert digest == CLASSIFY_SHA256[d]
