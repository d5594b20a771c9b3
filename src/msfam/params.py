"""Problem parameters for k-multisets over the ground set [n] with multiplicity cap m.

The cap m is a positive integer or UNBOUNDED.  Multiplicities above k are
unusable inside a k-uniform multiset, so the effective cap is min(m, k); the
requested cap is kept for reporting and file headers (spelled "inf" when
unbounded).
"""

from __future__ import annotations

from functools import cached_property


class ParameterError(ValueError):
    """Raised when arguments violate a documented precondition."""


class SearchCapError(RuntimeError):
    """Raised when a search exceeds its resource guard and no override was given."""


class InvariantError(RuntimeError):
    """Raised when a result breaks a mathematical invariant, which means a fault in the program."""


class Sentinel:
    """Base of a singleton class that names itself: ``class _T(Sentinel, name="T")``.

    Calling the class returns its one instance, whose repr is the name, and
    that instance pickles to itself.
    """

    def __init_subclass__(cls, name: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._name, cls._instance = name, None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return self._name

    def __reduce__(self):
        return (type(self), ())


class _UnboundedType(Sentinel, name="UNBOUNDED"):
    """Singleton marking an unlimited multiplicity cap."""


UNBOUNDED = _UnboundedType()

Cap = int | _UnboundedType


def _refuse_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make cls an immutable value class over its annotated fields, in order.

    The class gets what ``dataclasses.dataclass(frozen=True)`` would give
    it: ``__init__`` by position or keyword, with the class attributes as
    defaults, followed by ``__post_init__`` when the class has one; equality
    by class and fields; ``hash`` of the tuple of fields; the dataclass
    repr; and AttributeError on assigning or deleting any attribute.
    Instances pickle by their ``__dict__``, and a ``cached_property``
    writes there directly, so both still work.

    It exists to keep ``import msfam`` quick: importing dataclasses loads
    inspect, ast, dis and tokenize, a large share of what the import once
    cost, and decorating a class with it takes about three times as long as
    with this.  Like dataclasses it compiles ``__init__``, ``__eq__`` and
    ``__hash__`` once per class, so that an instance costs no more: the n=7
    enumeration builds 1.42M SetFamily objects.
    """
    fields = tuple(cls.__dict__["__annotations__"])
    defaults = {f"_default_{name}": cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = ", ".join(f"{name}=_default_{name}" if f"_default_{name}" in defaults else name
                       for name in fields)
    body = "".join(f"    _setattr(self, {name!r}, {name})\n" for name in fields)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    own = "".join(f"self.{name}," for name in fields)
    other = "".join(f"other.{name}," for name in fields)
    namespace = {"_setattr": object.__setattr__, **defaults}
    exec(f"def __init__(self, {params}):\n{body}"
         "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({own}) == ({other})\n"
         "    return NotImplemented\n"
         "def __hash__(self):\n"
         f"    return hash(({own}))\n", namespace)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{self.__class__.__qualname__}({shown})"

    for method in (namespace["__init__"], namespace["__eq__"], namespace["__hash__"], __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__, cls.__delattr__ = _refuse_setattr, _refuse_delattr
    return cls


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


def is_int(value) -> bool:
    """Whether value is an int and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(name: str, value, least: int = 1) -> None:
    """Raise ParameterError unless value is an int, not a bool, of at least least."""
    if not is_int(value) or value < least:
        raise ParameterError(f"{name} must be an integer of at least {least}, got {value!r}")


def require_cap(m: Cap) -> None:
    """Raise ParameterError unless m is UNBOUNDED or a positive integer."""
    if not is_unbounded(m) and (not is_int(m) or m < 1):
        raise ParameterError(f"m must be a positive integer or UNBOUNDED, got {m!r}")


def q_of(k: int, m: Cap) -> int:
    """Least support size of a k-uniform multiset under cap m: ceil(k/m), 1 for inf."""
    require_int("k", k)
    require_cap(m)
    if is_unbounded(m):
        return 1
    return -(-k // m)


@frozen
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
        require_int("n", self.n)
        require_int("k", self.k)
        require_cap(self.m)

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
