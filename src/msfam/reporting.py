"""Report types and their canonical serializations.

Reports are immutable value classes (see params.frozen); JSON output is
byte-deterministic (sorted keys, fixed indentation, trailing newline) so
identical configurations produce identical files regardless of worker count
or scheduling.  Wall-clock timing is recorded only on request, since it
would break that guarantee; the runtime_ms field is otherwise null.

The bytes are those of json.dumps(obj, indent=2, sort_keys=True) plus a
newline, which stays the tests' oracle.  CPython runs its C encoder only
without indent, so to_canonical_json writes the indented layout itself:
strings and keys through the C string encoder, ints by int.__repr__, the
literals null, true and false, and each all-int list (a family member) as
one join, cached by member and indent within a call.  Any other value (a
float, a dict with non-str keys, a subclass, an unknown type) is dumped by
json.dumps with the same settings and re-indented, so its bytes and errors
are the stdlib's.  A JSON string holds no raw newline, so every newline of a
dump is a line break of its layout.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii

from .params import Params, frozen

TOOL_VERSION = "0.1.0"

FamilyEncoding = tuple[tuple[int, ...], ...]


def params_dict(p: Params) -> dict:
    return {
        "n": p.n,
        "k": p.k,
        "m": p.m_text,
        "m_effective": p.m_eff,
        "q": p.q,
        "w": p.w,
    }


def encode_family(members: FamilyEncoding) -> list[list[int]]:
    return [list(member) for member in members]


@frozen
class TheoremReport:
    """Outcome of the bound-and-uniqueness verification for one (n, k, m)."""

    params: Params
    bound: int
    families_total: int
    families_checked: int
    iso_classes_checked: int
    achievers: tuple[FamilyEncoding, ...]
    achiever_class_sizes: tuple[int, ...]
    uniqueness_verdict: str  # unique-iso | multiple-iso | not-applicable
    lemma_violations: tuple[dict, ...]
    runtime_ms: int | None = None

    @property
    def passed(self) -> bool:
        return not self.lemma_violations

    def to_json_dict(self) -> dict:
        return {
            "kind": "theorem",
            "tool_version": TOOL_VERSION,
            "params": params_dict(self.params),
            "bound": self.bound,
            "families_total": self.families_total,
            "families_checked": self.families_checked,
            "iso_classes_checked": self.iso_classes_checked,
            "achievers": [encode_family(a) for a in self.achievers],
            "achiever_class_sizes": list(self.achiever_class_sizes),
            "uniqueness_verdict": self.uniqueness_verdict,
            "lemma_violations": list(self.lemma_violations),
            "runtime_ms": self.runtime_ms,
        }


@frozen
class LemmaReport:
    """Outcome of one structural check over all qualifying maximal families."""

    check: str
    params: Params
    families_total: int
    families_checked: int
    candidates: int
    violations: tuple[dict, ...]
    notices: tuple[str, ...] = ()
    runtime_ms: int | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": "lemma",
            "tool_version": TOOL_VERSION,
            "check": self.check,
            "params": params_dict(self.params),
            "families_total": self.families_total,
            "families_checked": self.families_checked,
            "candidates": self.candidates,
            "violations": list(self.violations),
            "notices": list(self.notices),
            "passed": self.passed,
            "runtime_ms": self.runtime_ms,
        }


_LITERALS = {None: "null", True: "true", False: "false"}
_INT_ONLY = {int}


def to_canonical_json(obj) -> str:
    if hasattr(obj, "to_json_dict"):
        obj = obj.to_json_dict()
    elif isinstance(obj, (list, tuple)):
        obj = [o.to_json_dict() if hasattr(o, "to_json_dict") else o for o in obj]
    parts: list[str] = []
    members: dict[tuple, str] = {}  # achievers share members: 91% of verify-n6's lists are hits
    open_containers: set[int] = set()  # ids on the current path, as json's circular check

    def write(value, indent: str) -> None:
        """Append value's JSON to parts, its lines after the first indented by indent."""
        kind = type(value)
        if kind is list or kind is tuple:
            if not value:
                parts.append("[]")
            elif set(map(type, value)) == _INT_ONLY:
                key = (tuple(value), indent)
                text = members.get(key)
                if text is None:
                    inner = "\n" + indent + "  "
                    text = members[key] = (
                        "[" + inner + ("," + inner).join(map(int.__repr__, value)) + "\n" + indent + "]")
                parts.append(text)
            else:
                enter(value)
                inner = indent + "  "
                separator = "[\n" + inner
                for item in value:
                    parts.append(separator)
                    write(item, inner)
                    separator = ",\n" + inner
                parts.append("\n" + indent + "]")
                open_containers.remove(id(value))
        elif kind is str:
            parts.append(encode_basestring_ascii(value))
        elif kind is int:
            parts.append(int.__repr__(value))
        elif value is None or kind is bool:
            parts.append(_LITERALS[value])
        elif kind is dict and all(type(key) is str for key in value):
            if not value:
                parts.append("{}")
                return
            enter(value)
            inner = indent + "  "
            separator = "{\n" + inner
            for key in sorted(value):
                parts.append(separator)
                parts.append(encode_basestring_ascii(key))
                parts.append(": ")
                write(value[key], inner)
                separator = ",\n" + inner
            parts.append("\n" + indent + "}")
            open_containers.remove(id(value))
        else:
            parts.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))

    def enter(container) -> None:
        if id(container) in open_containers:
            raise ValueError("Circular reference detected")
        open_containers.add(id(container))

    write(obj, "")
    parts.append("\n")
    return "".join(parts)


THEOREM_CSV_FIELDS = (
    "n", "k", "m", "bound", "families_checked", "iso_classes_checked",
    "achiever_classes", "uniqueness_verdict", "violations",
)


def theorem_reports_csv(reports) -> str:
    import csv  # here, so that import msfam does not load it

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=THEOREM_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in reports:
        writer.writerow({
            "n": r.params.n,
            "k": r.params.k,
            "m": r.params.m_text,
            "bound": r.bound,
            "families_checked": r.families_checked,
            "iso_classes_checked": r.iso_classes_checked,
            "achiever_classes": len(r.achievers),
            "uniqueness_verdict": r.uniqueness_verdict,
            "violations": len(r.lemma_violations),
        })
    return buf.getvalue()


def theorem_report_text(r: TheoremReport) -> str:
    lines = [
        f"bound check {r.params.label()}",
        f"  tool version      {TOOL_VERSION}",
        f"  bound             {r.bound}",
        f"  families total    {r.families_total}",
        f"  families checked  {r.families_checked}",
        f"  iso classes       {r.iso_classes_checked}",
        f"  achiever classes  {len(r.achievers)} (sizes {list(r.achiever_class_sizes)})",
        f"  uniqueness        {r.uniqueness_verdict}",
        f"  violations        {len(r.lemma_violations)}",
        f"  result            {'pass' if r.passed else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"


def lemma_report_text(r: LemmaReport) -> str:
    lines = [
        f"{r.check} check {r.params.label()}",
        f"  families total    {r.families_total}",
        f"  families checked  {r.families_checked}",
        f"  candidates        {r.candidates}",
        f"  violations        {len(r.violations)}",
    ]
    for note in r.notices:
        lines.append(f"  note: {note}")
    lines.append(f"  result            {'pass' if r.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
