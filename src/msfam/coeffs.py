"""Counts of k-uniform multisets with a fixed support size.

coeff(k, l, m) is the number of ways to write k as an ordered sum of l parts,
each part in [1, m]; equivalently the coefficient of x^k in (x + ... + x^m)^l.
It equals the number of k-multisets whose support is a fixed l-element set.
Four structural facts hold and are checkable exactly:

  (i)   coeff(k, l, m) > 0  iff  q <= l <= k, with q = ceil(k/m);
  (ii)  coeff(k, q, m) == 1  iff  min(k, m) divides k;
  (iii) coeff(k, k, m) == 1;
  (iv)  for n >= k + q and q <= l <= min(k, n//2): coeff(k, l) >= coeff(k, n - l).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .params import Cap, frozen, is_unbounded, q_of, require_cap

__all__ = ["CoeffTable", "CoeffPropertyReport", "coeff", "coeff_table", "check_coeff_properties", "q_of"]


@frozen
class CoeffTable:
    """Table of coeff(k, l, m) for l = 0..k. values[l] is exact (Python int)."""

    k: int
    m: Cap
    values: tuple[int, ...]

    def __getitem__(self, l: int) -> int:
        if 0 <= l <= self.k:
            return self.values[l]
        return 0


@lru_cache(maxsize=None)
def _table_values(k: int, m_key: int | None) -> tuple[int, ...]:
    # m_key None means unbounded; caps above k behave identically to unbounded.
    if m_key is None or m_key >= k:
        return (1 if k == 0 else 0,) + tuple(comb(k - 1, l - 1) for l in range(1, k + 1))
    m = m_key
    values = [0] * (k + 1)
    values[0] = 1 if k == 0 else 0
    poly = [1]  # coefficients of (x + ... + x^m)^l, truncated at degree k
    for l in range(1, k + 1):
        nxt = [0] * (k + 1)
        for d, c in enumerate(poly):
            if c:
                for j in range(1, min(m, k - d) + 1):
                    nxt[d + j] += c
        poly = nxt
        values[l] = poly[k]
    return tuple(values)


def coeff_table(k: int, m: Cap) -> CoeffTable:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    require_cap(m)
    m_key = None if is_unbounded(m) else m
    return CoeffTable(k=k, m=m, values=_table_values(k, m_key))


def coeff(k: int, l: int, m: Cap) -> int:
    """Number of compositions of k into l parts, each in [1, m]; 0 outside [q, k]."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if l < 0:
        raise ValueError(f"l must be non-negative, got {l}")
    if l > k:
        return 0
    return coeff_table(k, m).values[l]


@frozen
class CoeffPropertyReport:
    """Exact evaluation of the four structural facts for one (k, m, n)."""

    k: int
    m: Cap
    n: int
    positivity_window_ok: bool
    bottom_unit_ok: bool
    top_unit_ok: bool
    fold_dominance_ok: bool | None  # None when n < k + q (precondition not met, skipped)
    violations: tuple[str, ...] = ()
    notices: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        checks = [self.positivity_window_ok, self.bottom_unit_ok, self.top_unit_ok]
        if self.fold_dominance_ok is not None:
            checks.append(self.fold_dominance_ok)
        return all(checks)


def check_coeff_properties(k: int, m: Cap, n: int) -> CoeffPropertyReport:
    """Evaluate properties (i)-(iv) exactly; (iv) is skipped with notice when n < k + q."""
    q = q_of(k, m)
    table = coeff_table(k, m)
    violations: list[str] = []
    notices: list[str] = []

    positivity = True
    for l in range(0, max(k, n) + 2):
        value = table[l]
        expected_positive = q <= l <= k
        if (value > 0) != expected_positive:
            positivity = False
            violations.append(f"positivity window fails at l={l}: value={value}")

    m_min = k if is_unbounded(m) else min(k, m)
    bottom = (table[q] == 1) == (k % m_min == 0)
    if not bottom:
        violations.append(f"bottom unit fails: coeff(k, q)={table[q]}, min(k, m)={m_min}")

    top = table[k] == 1
    if not top:
        violations.append(f"top unit fails: coeff(k, k)={table[k]}")

    fold: bool | None
    if n < k + q:
        fold = None
        notices.append(f"fold dominance skipped: requires n >= k + q = {k + q}, got n={n}")
    else:
        fold = True
        for l in range(q, min(k, n // 2) + 1):
            if table[l] < table[n - l]:
                fold = False
                violations.append(f"fold dominance fails at l={l}: {table[l]} < {table[n - l]}")

    return CoeffPropertyReport(
        k=k, m=m, n=n,
        positivity_window_ok=positivity,
        bottom_unit_ok=bottom,
        top_unit_ok=top,
        fold_dominance_ok=fold,
        violations=tuple(violations),
        notices=tuple(notices),
    )
