"""Problem parameters for k-multisets over the ground set [n] with multiplicity cap m.

The cap m is a positive integer or UNBOUNDED.  Multiplicities above k are
unusable inside a k-uniform multiset, so the effective cap is min(m, k); the
requested cap is kept for reporting and file headers (spelled "inf" when
unbounded).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class ParameterError(ValueError):
    """Raised when arguments violate a documented precondition."""


class SearchCapError(RuntimeError):
    """Raised when a search exceeds its resource guard and no override was given."""


class InvariantError(RuntimeError):
    """Raised when a result breaks a mathematical invariant, which means a fault in the program."""


class _UnboundedType:
    """Singleton marking an unlimited multiplicity cap."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"

    def __reduce__(self):
        return (_UnboundedType, ())


UNBOUNDED = _UnboundedType()

Cap = int | _UnboundedType


def is_unbounded(m: Cap) -> bool:
    return isinstance(m, _UnboundedType)


def parse_cap(text: str) -> Cap:
    """Parse a cap from its wire spelling: a positive integer or "inf"."""
    if text.strip().lower() == "inf":
        return UNBOUNDED
    try:
        value = int(text)
    except ValueError:
        raise ParameterError(f"cap must be a positive integer or 'inf', got {text!r}") from None
    if value < 1:
        raise ParameterError(f"cap must be positive, got {value}")
    return value


def cap_text(m: Cap) -> str:
    return "inf" if is_unbounded(m) else str(m)


def q_of(k: int, m: Cap) -> int:
    """Least support size of a k-uniform multiset under cap m: ceil(k/m), 1 for inf."""
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if is_unbounded(m):
        return 1
    return -(-k // m)


@dataclass(frozen=True)
class Params:
    """The triple (n, k, m) plus derived quantities.

    n: ground-set size, k: uniformity, m: multiplicity cap (int or UNBOUNDED).
    Derived: m_eff = min(m, k), q = ceil(k/m), w = min(k, floor(n/2)),
    h_set = {n-k+1, ..., n} (defined only when n > k, else None).
    """

    n: int
    k: int
    m: Cap

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ParameterError(f"k must be a positive integer, got {self.k!r}")
        if not is_unbounded(self.m):
            if not isinstance(self.m, int) or self.m < 1:
                raise ParameterError(f"m must be a positive integer or UNBOUNDED, got {self.m!r}")

    @property
    def unbounded(self) -> bool:
        return is_unbounded(self.m)

    @property
    def m_eff(self) -> int:
        """Effective cap: multiplicities above k never occur in a k-uniform multiset."""
        return self.k if self.unbounded else min(self.m, self.k)

    @property
    def q(self) -> int:
        return q_of(self.k, self.m)

    @property
    def w(self) -> int:
        return min(self.k, self.n // 2)

    @property
    def m_text(self) -> str:
        return cap_text(self.m)

    @cached_property
    def h_set(self) -> frozenset[int] | None:
        """The tail interval {n-k+1, ..., n}; k elements, none equal to 1. None if n <= k."""
        if self.n <= self.k:
            return None
        return frozenset(range(self.n - self.k + 1, self.n + 1))

    @cached_property
    def h_mask(self) -> int | None:
        """h_set as a bitmask (bit i-1 set for element i); None if n <= k."""
        if self.n <= self.k:
            return None
        return ((1 << self.k) - 1) << (self.n - self.k)

    def require_tail(self) -> None:
        if self.n <= self.k:
            raise ParameterError(f"need n > k for the tail interval to avoid element 1 (n={self.n}, k={self.k})")

    def require_theorem_range(self) -> None:
        """Hypotheses of the extremal bound: k >= 4, m >= 2, n >= k + q."""
        if self.k < 4:
            raise ParameterError(f"bound requires k >= 4, got k={self.k}")
        if not self.unbounded and self.m < 2:
            raise ParameterError(f"bound requires m >= 2, got m={self.m}")
        if self.n < self.k + self.q:
            raise ParameterError(f"bound requires n >= k + q = {self.k + self.q}, got n={self.n}")

    def label(self) -> str:
        return f"(n={self.n}, k={self.k}, m={self.m_text})"
