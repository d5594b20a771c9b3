"""Composition-count table: examples, brute-force agreement, structural facts."""

import pytest

from msfam import (
    UNBOUNDED, ParameterError, Params, check_coeff_properties, coeff, coeff_table,
    count_maximal_families, q_of, run_verification,
)

from conftest import brute_compositions


def test_examples():
    assert coeff(4, 3, 2) == 3  # (1,1,2),(1,2,1),(2,1,1)
    assert coeff(4, 2, UNBOUNDED) == 3
    assert coeff(5, 3, 2) == 3  # (1,2,2),(2,1,2),(2,2,1)
    for m in (1, 2, 3, 4, 7, UNBOUNDED):
        assert coeff(4, 4, m) == 1


def test_out_of_window_values():
    assert coeff(4, 0, 2) == 0
    assert coeff(4, 5, 2) == 0
    assert coeff(4, 1, 2) == 0  # one part of size 4 exceeds the cap 2
    assert coeff(4, 1, 4) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, UNBOUNDED])
def test_brute_force_agreement(m):
    for k in range(1, 11):
        for l in range(0, 11):
            assert coeff(k, l, m) == brute_compositions(k, l, m), (k, l, m)


def test_m1_collapses_to_sets():
    for k in range(1, 9):
        for l in range(0, 10):
            assert coeff(k, l, 1) == (1 if l == k else 0)


def test_caps_at_or_above_k_are_equivalent():
    for k in range(1, 9):
        reference = [coeff(k, l, k) for l in range(k + 1)]
        for m in (k, k + 1, k + 3, UNBOUNDED):
            assert [coeff(k, l, m) for l in range(k + 1)] == reference


def test_q_of():
    assert q_of(4, 2) == 2
    assert q_of(5, 2) == 3
    assert q_of(4, UNBOUNDED) == 1
    assert q_of(4, 7) == 1
    assert q_of(6, 3) == 2


@pytest.mark.parametrize("m", [0, -1, 2.0, "2", None, True])
def test_caps_other_than_a_positive_int_or_unbounded_rejected(m):
    """A cap below 1 used to divide by zero (m=0), give a negative q (m=-1)
    or report the paper's fact (i) as failing; now each entry point refuses
    it, and a bool, which Python counts as an int, too."""
    for call in (lambda: q_of(4, m), lambda: coeff_table(4, m), lambda: coeff(4, 2, m),
                 lambda: check_coeff_properties(4, m, 6)):
        with pytest.raises(ParameterError, match="m must be a positive integer or UNBOUNDED"):
            call()


@pytest.mark.parametrize("bad, bad_l", [(4.0, 4.0), (True, True), (0, -1)])
def test_integer_arguments_other_than_an_int_rejected(bad, bad_l):
    """Each integer argument is refused as a float, as a bool (which Python
    counts as an int) and below its least value (l may be 0).  q_of(4.0, 2)
    used to return 2.0, q_of(True, 2) returned 1, coeff_table(True, 2) built
    a table and coeff(4.0, 2, 2) raised a bare TypeError."""
    calls = [lambda: Params(bad, 4, 2), lambda: Params(6, bad, 2), lambda: q_of(bad, 2),
             lambda: coeff_table(bad, 2), lambda: coeff(bad, 2, 2), lambda: coeff(4, bad_l, 2),
             lambda: count_maximal_families(bad), lambda: run_verification(5, workers=bad)]
    for call in calls:
        with pytest.raises(ParameterError, match="integer"):
            call()


def test_table_window():
    table = coeff_table(6, 2)
    q = q_of(6, 2)
    for l in range(0, 7):
        assert (table.values[l] > 0) == (q <= l <= 6)
    assert table.values[6] == 1


def test_bottom_unit_both_directions():
    # min(k, m) divides k: coeff(k, q) == 1
    assert coeff(4, q_of(4, 2), 2) == 1
    # min(k, m) does not divide k: coeff(k, q) > 1
    assert coeff(5, q_of(5, 2), 2) == 3


def test_fold_dominance_example():
    table = coeff_table(4, 2)
    # n = 7: the window folds l onto 7 - l
    assert table[2] >= table[5]
    assert table[3] >= table[4]
    assert (table[2], table[5], table[3], table[4]) == (1, 0, 3, 1)


def test_property_report_pass_grid():
    for k in range(1, 9):
        for m in [1, 2, 3, 5, UNBOUNDED]:
            q = q_of(k, m)
            for n in range(k + q, k + q + 5):
                report = check_coeff_properties(k, m, n)
                assert report.passed, report.violations
                assert report.fold_dominance_ok is True


def test_property_report_skips_fold_below_range():
    report = check_coeff_properties(4, 2, 5)  # k + q = 6 > 5
    assert report.fold_dominance_ok is None
    assert report.notices
    assert report.passed  # remaining properties still hold
