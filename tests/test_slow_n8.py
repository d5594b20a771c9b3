"""Exhaustive n=8 pins, past the enumeration guard.  Marked slow and
deselected by default (see pyproject.toml); run them with `pytest -m slow`.
Each takes a minute or so on a 2-core Xeon and peaks at about 0.5 GB."""

import pytest

from msfam import LEMMA_CHECKS, Params, count_maximal_families, run_verification

pytestmark = pytest.mark.slow


def test_count_maximal_families_n8():
    # Brouwer, Mills, Mills and Verbeek, 2013
    assert count_maximal_families(8, cap_override=True) == 229809982112


@pytest.mark.parametrize("workers", [1, 2])
def test_theorem_and_lemmas_at_8_4_2(workers):
    p = Params(8, 4, 2)
    res = run_verification(8, [p], [p], workers=workers, cap_override=True)
    assert res.families_total == 229809982112
    theorem = res.theorem_reports[0]
    assert theorem.passed
    assert theorem.uniqueness_verdict == "unique-iso"
    assert theorem.achiever_class_sizes == (280,)
    bundle = res.lemma_bundles[0]
    for name in LEMMA_CHECKS:
        assert bundle[name].passed, (name, bundle[name].violations)


def test_theorem_unique_by_valuable_part_at_8_5_2():
    # six achiever classes of subset families, differing only outside the
    # valuable layers [q, k] = [3, 5]; their valuable parts form one orbit
    report = run_verification(8, [Params(8, 5, 2)], cap_override=True).theorem_reports[0]
    assert report.uniqueness_verdict == "unique-iso"
    assert len(report.achiever_class_sizes) == 6
    assert report.lemma_violations == ()
    assert report.passed
