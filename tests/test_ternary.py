"""Strata of ternary forms and the degree-4 classification."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitforge.lattice import chamber_canonical, gl_roots
from orbitforge.nicecrit import is_nice
from orbitforge.ratgeom import PointSet, Vec, mcc
from orbitforge.reps import PolyBackend
from orbitforge.ternary import (_maximal_independent_sets, classify,
                                display_type, maximal_nice_subsets,
                                omega_weights, stratifying_set, verify_table1)

QUARTIC_TYPES = {
    (0, 0, 4), (0, 1, 3), (0, 2, 2),
    (Fraction(1, 3), Fraction(4, 3), Fraction(7, 3)),
    (Fraction(1, 2), Fraction(3, 2), 2),
    (Fraction(8, 13), Fraction(20, 13), Fraction(24, 13)),
    (1, 1, 2),
    (Fraction(5, 6), Fraction(4, 3), Fraction(11, 6)),
    (Fraction(6, 7), Fraction(10, 7), Fraction(12, 7)),
    (1, Fraction(3, 2), Fraction(3, 2)),
    (Fraction(8, 7), Fraction(9, 7), Fraction(11, 7)),
    (Fraction(4, 3), Fraction(4, 3), Fraction(4, 3)),
}


def test_stratifying_set_degree_four():
    labels = stratifying_set(4)
    assert len(labels) == 12
    assert {display_type(b) for b in labels} == QUARTIC_TYPES
    # The root-related pair's label is excluded.
    assert (Fraction(1, 2), Fraction(1, 2), 3) not in \
        {display_type(b) for b in labels}


def test_stratifying_set_is_sorted_by_norm():
    labels = stratifying_set(4)
    norms = [b.norm_sq() for b in labels]
    assert norms == sorted(norms, reverse=True)


def test_stratifying_set_low_degrees():
    assert stratifying_set(1) == [chamber_canonical(Vec([0, 0, -1]))]
    assert {display_type(b) for b in stratifying_set(2)} == {
        (0, 0, 2), (0, 1, 1),
        (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3))}
    with pytest.raises(ValueError):
        stratifying_set(0)


def _oracle_stratifying_set(d, n):
    """The pair formula through the subset-enumerating mcc of each pair."""
    backend = PolyBackend(n, d)
    weights = [backend.weight(idx) for idx in backend.all_indices()]
    roots = gl_roots(n)
    out = set()
    for a, b in combinations_with_replacement(weights, 2):
        if a != b and (a - b) in roots:
            continue
        out.add(chamber_canonical(mcc(PointSet([a]) if a == b else PointSet([a, b]))))
    return sorted(out, key=lambda v: (-v.norm_sq(), v))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stratifying_set_matches_the_mcc_oracle(n):
    for d in range(1, 7):
        assert stratifying_set(d, n) == _oracle_stratifying_set(d, n), (d, n)


@pytest.mark.parametrize("d", range(1, 7))
def test_triples_add_no_label_to_the_pairs(d):
    # A weight triple whose pairs are not root-related has its mcc among the
    # pair labels, so stratifying_set needs no triples for these degrees.
    labels = set(stratifying_set(d))
    backend = PolyBackend(3, d)
    weights = [backend.weight(idx) for idx in backend.all_indices()]
    roots = gl_roots(3)
    for triple in combinations(weights, 3):
        if any((a - b) in roots for a, b in combinations(triple, 2)):
            continue
        assert chamber_canonical(mcc(PointSet(triple))) in labels, triple


def test_omega_weights():
    beta = Vec([Fraction(-11, 7), Fraction(-9, 7), Fraction(-8, 7)])
    omega = omega_weights(beta, 4)
    assert {tuple(int(-x) for x in w) for w in omega} == {(1, 3, 0), (2, 0, 2)}
    with pytest.raises(ValueError):
        omega_weights(Vec([-5, -5, -5]), 4)


def test_maximal_nice_subsets_partition():
    beta = Vec([Fraction(-3, 2), Fraction(-3, 2), -1])
    omega = omega_weights(beta, 4)
    assert {tuple(int(-x) for x in w) for w in omega} == \
        {(3, 0, 1), (2, 1, 1), (1, 2, 1), (0, 3, 1)}
    subsets = maximal_nice_subsets(omega)
    keyed = {frozenset(tuple(int(-x) for x in w) for w in s) for s in subsets}
    assert keyed == {
        frozenset({(3, 0, 1), (1, 2, 1)}),
        frozenset({(3, 0, 1), (0, 3, 1)}),
        frozenset({(2, 1, 1), (0, 3, 1)}),
    }


def test_every_maximal_nice_subset_passes_the_full_nice_check():
    # The independent sets of the root-difference graph are nice by the
    # pairwise argument; is_nice confirms each one classify reads, and each
    # weight is one of the representation, as is_nice requires.
    roots, checked = gl_roots(3), 0
    for d in (4, 5, 6):
        backend = PolyBackend(3, d)
        known = {backend.weight(idx) for idx in backend.all_indices()}
        labels = list(stratifying_set(d))
        if d == 4:
            labels.append(chamber_canonical(Vec([-3, Fraction(-1, 2), Fraction(-1, 2)])))
        for beta in labels:
            for subset in maximal_nice_subsets(omega_weights(beta, d)):
                assert subset.as_set() <= known
                assert is_nice(subset, roots) == (True, None), (d, beta, subset)
                checked += 1
    assert checked == 68 + 296 + 1562 + 2  # d = 4, 5, 6, and the excluded label


def test_classify_appends_empty_stratum():
    strata = classify(4)
    assert len(strata) == 13
    empties = [s for s in strata if s.empty]
    assert len(empties) == 1
    assert display_type(empties[0].beta) == (Fraction(1, 2), Fraction(1, 2), 3)


def test_classify_point_stratum_coefficients():
    strata = {display_type(s.beta): s for s in classify(4)}
    s = strata[(Fraction(8, 7), Fraction(9, 7), Fraction(11, 7))]
    assert len(s.families) == 1
    assert s.families[0].family.coefficient_squares() == \
        (Fraction(1, 14), Fraction(1, 7))
    s = strata[(Fraction(6, 7), Fraction(10, 7), Fraction(12, 7))]
    assert s.families[0].family.coefficient_squares() == \
        (Fraction(1, 168), Fraction(3, 7))


def test_classify_barycenter_has_even_family():
    strata = {display_type(s.beta): s for s in classify(4)}
    s = strata[(Fraction(4, 3), Fraction(4, 3), Fraction(4, 3))]
    even = {(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0), (2, 0, 2), (0, 2, 2)}
    hits = [f for f in s.families
            if {tuple(int(-x) for x in w) for w in f.weights} == even]
    assert len(hits) == 1 and hits[0].family.dimension == 3


def test_verify_table1_all_rows_pass():
    reports = verify_table1()
    assert len(reports) == 13
    for r in reports:
        assert r.passed, (r.type, r.mismatches)


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_maximal_independent_sets_match_brute_force(graph):
    n, edges = graph
    edge_set = set(edges)

    def independent(s):
        return not any(e in edge_set for e in combinations(s, 2))

    every = [set(s) for k in range(n + 1) for s in combinations(range(n), k)
             if independent(s)]
    maximal = sorted(sorted(s) for s in every if not any(s < t for t in every))
    got = _maximal_independent_sets(n, edges)
    assert sorted(got) == maximal
    assert len({tuple(s) for s in got}) == len(got)


@pytest.mark.parametrize("n, d", [(2, 4), (4, 3)])
def test_omega_and_nice_subsets_read_n_and_d_from_their_weights(n, d):
    roots = gl_roots(n)
    weights = {PolyBackend(n, d).weight(idx) for idx in PolyBackend(n, d).all_indices()}
    for beta in stratifying_set(d, n):
        omega = omega_weights(beta, d)
        assert omega.as_set() <= weights
        subsets = maximal_nice_subsets(omega)
        assert set().union(*(s.as_set() for s in subsets)) == omega.as_set()
        for s in subsets:
            assert all((a - b) not in roots for a, b in combinations(s, 2))
