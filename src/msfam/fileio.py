"""Text formats for multiset families and subset families.

Multiset family files carry a header line "n k m" (m spelled "inf" when
unbounded) followed by one multiset per line, either dense
("mu_1 mu_2 ... mu_n") or sparse ("i^mu" tokens, ascending elements).  The
reader detects the style per line; writer output round-trips bit-exactly.

Subset family files carry a header line "n" followed by one subset per line
as its sorted elements separated by spaces.
"""

from __future__ import annotations

import io
from typing import TextIO

from .multiset import MultisetFamily, Multiset
from .params import Params, ParameterError, parse_cap
from .subsets import SetFamily


class FileFormatError(ValueError):
    """Raised on malformed family files."""


def _dense_line(a: Multiset) -> str:
    return " ".join(str(mu) for mu in a)


def _sparse_line(a: Multiset) -> str:
    return " ".join(f"{i + 1}^{mu}" for i, mu in enumerate(a) if mu)


def format_multiset(a: Multiset, style: str = "dense") -> str:
    if style == "dense":
        return _dense_line(a)
    if style == "sparse":
        return _sparse_line(a)
    raise ParameterError(f"unknown style {style!r} (want 'dense' or 'sparse')")


def parse_multiset(line: str, n: int) -> Multiset:
    tokens = line.split()
    if not tokens:
        raise FileFormatError("empty multiset line")
    if any("^" in tok for tok in tokens):
        vec = [0] * n
        for tok in tokens:
            try:
                elem_text, mu_text = tok.split("^", 1)
                elem, mu = int(elem_text), int(mu_text)
            except ValueError:
                raise FileFormatError(f"bad sparse token {tok!r}") from None
            if not 1 <= elem <= n:
                raise FileFormatError(f"element {elem} outside [{n}]")
            if mu < 1:
                raise FileFormatError(f"sparse multiplicity must be positive: {tok!r}")
            if vec[elem - 1]:
                raise FileFormatError(f"duplicate element {elem} in sparse line")
            vec[elem - 1] = mu
        return tuple(vec)
    if len(tokens) != n:
        raise FileFormatError(f"dense line has {len(tokens)} entries, expected {n}")
    try:
        vec = [int(tok) for tok in tokens]
    except ValueError:
        raise FileFormatError(f"bad dense line {line!r}") from None
    if any(mu < 0 for mu in vec):
        raise FileFormatError(f"negative multiplicity in {line!r}")
    return tuple(vec)


def write_multiset_family(fam: MultisetFamily, out: TextIO, style: str = "dense") -> None:
    p = fam.params
    out.write(f"{p.n} {p.k} {p.m_text}\n")
    for a in fam.members:
        out.write(format_multiset(a, style) + "\n")


def multiset_family_text(fam: MultisetFamily, style: str = "dense") -> str:
    buf = io.StringIO()
    write_multiset_family(fam, buf, style)
    return buf.getvalue()


def read_multiset_family(inp: TextIO | str) -> MultisetFamily:
    if isinstance(inp, str):
        inp = io.StringIO(inp)
    header = inp.readline().split()
    if len(header) != 3:
        raise FileFormatError("header must be 'n k m'")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise FileFormatError(f"bad header {header!r}") from None
    # a header Params rejects, or a member that breaks k or the cap, is a
    # malformed file like any other
    try:
        p = Params(n, k, parse_cap(header[2]))
        members = [parse_multiset(line, n) for line in inp if line.strip()]
        return MultisetFamily.from_iterable(p, members)
    except ParameterError as exc:
        raise FileFormatError(str(exc)) from None


def write_set_family(fam: SetFamily, out: TextIO) -> None:
    out.write(f"{fam.n}\n")
    for member in fam.member_sets():
        out.write(" ".join(str(e) for e in member) + "\n")


def set_family_text(fam: SetFamily) -> str:
    buf = io.StringIO()
    write_set_family(fam, buf)
    return buf.getvalue()


def read_set_family(inp: TextIO | str) -> SetFamily:
    if isinstance(inp, str):
        inp = io.StringIO(inp)
    header = inp.readline().split()
    if len(header) != 1:
        raise FileFormatError("header must be 'n'")
    try:
        n = int(header[0])
    except ValueError:
        raise FileFormatError(f"bad header {header!r}") from None
    if n < 1:
        raise FileFormatError(f"ground set size must be at least 1, got {n}")
    masks = []
    for line in inp:
        if not line.strip():
            continue
        try:
            elements = [int(tok) for tok in line.split()]
        except ValueError:
            raise FileFormatError(f"bad subset line {line!r}") from None
        if len(set(elements)) != len(elements):
            raise FileFormatError(f"duplicate element in subset line {line!r}")
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise FileFormatError(f"element {e} outside [{n}]")
            mask |= 1 << (e - 1)
        masks.append(mask)
    return SetFamily.from_masks(n, masks)
