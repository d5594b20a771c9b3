"""Command-line front end.

Subcommands: coeffs, count, construct, verify-theorem, verify-lemma,
enumerate-maximal, grid.  Reports are byte-deterministic for identical
configurations; exit status is 0 when all checks pass, 1 when a verified
claim is violated, 2 on usage errors (including exceeded search guards).

Output paths are resolved against $MSFAM_OUT_DIR when that variable is set
and the path is relative.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
from typing import Callable

from . import fileio, search
from .coeffs import coeff_table
from .families import build_ekr, build_hm, ekr_size
from .multiset import MultisetFamily, count_k_multisets
from .params import Cap, Params, ParameterError, SearchCapError, cap_text, parse_cap
from .reporting import (
    TOOL_VERSION, lemma_report_text, theorem_report_text, theorem_reports_csv,
    to_canonical_json,
)
from .subsets import (
    build_hm_shadow, build_removed_part, build_star, by_size_then_elements, hm_shadow_valuable,
    mask_from_elements,
)

_SET_TARGETS = ("star", "removed-part", "shadow", "shadow-valuable")
_MULTISET_TARGETS = ("ekr", "hm")


def _parse_int_list(text: str) -> list[int]:
    """Accept '4', '4,5', and '4..6' forms."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if ".." in piece:
            lo_text, hi_text = piece.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ParameterError(f"empty range {piece!r}")
            out.extend(range(lo, hi + 1))
        elif piece:
            out.append(int(piece))
    if not out:
        raise ParameterError(f"empty list {text!r}")
    return out


def _parse_cap_list(text: str) -> list[Cap]:
    out = [parse_cap(piece) for piece in text.split(",") if piece.strip()]
    if not out:
        raise ParameterError(f"empty list {text!r}")
    return out


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("MSFAM_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _open_out(out_path: str | None):
    resolved = _resolve_out(out_path)
    if resolved is None:
        return contextlib.nullcontext(sys.stdout)
    os.makedirs(os.path.dirname(resolved) or ".", exist_ok=True)
    return open(resolved, "w")


def _emit(text: str, out_path: str | None) -> None:
    with _open_out(out_path) as fh:
        fh.write(text)


def _cmd_coeffs(args) -> int:
    ks = _parse_int_list(args.k)
    m = parse_cap(args.m)
    tables = {k: coeff_table(k, m) for k in ks}
    max_k = max(ks)
    if args.format == "json":
        payload = {
            "kind": "coeffs",
            "tool_version": TOOL_VERSION,
            "m": cap_text(m),
            "tables": {str(k): list(tables[k].values) for k in ks},
        }
        _emit(to_canonical_json(payload), args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["l"] + [f"k={k}" for k in ks])
    for l in range(0, max_k + 1):
        writer.writerow([l] + [tables[k][l] for k in ks])
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_count(args) -> int:
    p = Params(args.n, args.k, parse_cap(args.m))
    value = count_k_multisets(p)
    if args.format == "json":
        payload = {
            "kind": "count",
            "tool_version": TOOL_VERSION,
            "params": {"n": p.n, "k": p.k, "m": p.m_text},
            "count": value,
        }
        _emit(to_canonical_json(payload), args.out)
    else:
        _emit(f"{value}\n", args.out)
    return 0


def _construct_target(target: str, p: Params):
    if target == "ekr":
        return build_ekr(p), ekr_size(p)
    if target == "hm":
        fam = build_hm(p)
        return fam, len(fam)
    if target == "star":
        fam = build_star(p.n)
        return fam, len(fam)
    if target == "removed-part":
        fam = build_removed_part(p)
        return fam, len(fam)
    if target == "shadow":
        fam = build_hm_shadow(p)
        return fam, len(fam)
    if target == "shadow-valuable":
        fam = hm_shadow_valuable(p)
        return fam, len(fam)
    raise ParameterError(f"unknown construct target {target!r}")


def _cmd_construct(args) -> int:
    p = Params(args.n, args.k, parse_cap(args.m))
    fam, size = _construct_target(args.target, p)
    if args.count_only:
        _emit(f"{size}\n", args.out)
        return 0
    if isinstance(fam, MultisetFamily):
        style = "sparse" if args.sparse else "dense"
        _emit(fileio.multiset_family_text(fam, style), args.out)
    else:
        _emit(fileio.set_family_text(fam), args.out)
    return 0


def _cmd_verify_theorem(args) -> int:
    report = search.verify_hm_theorem(
        args.n, args.k, parse_cap(args.m), workers=args.workers,
        cap_override=args.cap_override, check=not args.unchecked, timing=args.timing,
    )
    if args.format == "text":
        _emit(theorem_report_text(report), args.out)
    else:
        _emit(to_canonical_json(report), args.out)
    return 0 if report.passed else 1


def _cmd_verify_lemma(args) -> int:
    bundle = search.verify_lemma_bundle(
        args.n, args.k, parse_cap(args.m), workers=args.workers,
        cap_override=args.cap_override, check=not args.unchecked, timing=args.timing,
    )
    if args.which == "all":
        reports = [bundle[name] for name in search.LEMMA_CHECKS]
    else:
        reports = [bundle[args.which]]
    if args.format == "text":
        _emit("".join(lemma_report_text(r) for r in reports), args.out)
    else:
        _emit(to_canonical_json(reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_enumerate(args) -> int:
    # the call meets the --n guard, before anything is written
    families = search.enumerate_maximal_families(
        args.n, up_to_iso=args.up_to_iso, cap_override=args.cap_override,
    )
    if args.format == "json":
        listed = list(families)
        payload = {
            "kind": "maximal-families",
            "tool_version": TOOL_VERSION,
            "n": args.n,
            "up_to_iso": bool(args.up_to_iso),
            "count": len(listed),
            "families": [fam.member_sets() for fam in listed],
        }
        _emit(to_canonical_json(payload), args.out)
        return 0
    # the header needs the count up front; counting costs a fraction of the walk
    count_of = search.count_iso_classes if args.up_to_iso else search.count_maximal_families
    count = count_of(args.n, cap_override=args.cap_override)
    members_text = _members_text(args.n)
    with _open_out(args.out) as fh:
        fh.write(f"{args.n}\n# {count} maximal intersecting families"
                 f"{' (one per isomorphism class)' if args.up_to_iso else ''}\n")
        for i, fam in enumerate(families):
            fh.write(f"# family {i}\n{members_text(fam.bits)}\n")
    return 0


def _members_text(n: int) -> Callable[[int], str]:
    """A family's members as text lines in (size, elements) order, from its bits.

    The proper subsets of [n] are ranked by by_size_then_elements.  A
    family bitset maps to its rank bitset a byte at a time, and each byte of
    the rank bitset picks a run of ready-made lines, so no family is sorted
    or formatted.
    """
    full = (1 << n) - 1
    ranked = by_size_then_elements(range(1, full))
    rank = {mask_from_elements(elements, n): r for r, elements in enumerate(ranked)}
    lines = [" ".join(map(str, elements)) + "\n" for elements in ranked]
    in_bytes, out_bytes = (full + 8) // 8, (len(ranked) + 7) // 8
    to_rank = [[sum(1 << rank[x] for b in range(8) if v >> b & 1 and (x := 8 * i + b) in rank)
                for v in range(256)] for i in range(in_bytes)]
    runs = [["".join(lines[r] for b in range(8) if v >> b & 1 and (r := 8 * i + b) < len(lines))
             for v in range(256)] for i in range(out_bytes)]

    def text(bits: int) -> str:
        ranks = sum(map(list.__getitem__, to_rank, bits.to_bytes(in_bytes, "little")))
        return "".join(map(list.__getitem__, runs, ranks.to_bytes(out_bytes, "little")))

    return text


def _cmd_grid(args) -> int:
    reports = search.verify_grid(
        _parse_int_list(args.k), _parse_cap_list(args.m), args.n_max,
        workers=args.workers, cap_override=args.cap_override,
        check=not args.unchecked, timing=args.timing,
    )
    if args.report_dir:
        report_dir = _resolve_out(args.report_dir)
        os.makedirs(report_dir, exist_ok=True)
        for r in reports:
            name = f"theorem_n{r.params.n}_k{r.params.k}_m{r.params.m_text}.json"
            with open(os.path.join(report_dir, name), "w") as fh:
                fh.write(to_canonical_json(r))
    if args.format == "json":
        _emit(to_canonical_json(list(reports)), args.out)
    else:
        _emit(theorem_reports_csv(reports), args.out)
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfam",
        description="Extremal intersecting families of bounded multisets: "
                    "construct, count, and exhaustively verify.",
    )
    parser.add_argument("--version", action="version", version=f"msfam {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, workers=False):
        sp.add_argument("--out", help="output path (resolved against $MSFAM_OUT_DIR if relative)")
        if workers:
            sp.add_argument("--workers", type=int, default=1,
                            help="processes a pass may use, this one included (default 1)")
            sp.add_argument("--cap-override", action="store_true",
                            help="override the enumeration size guard")
            sp.add_argument("--unchecked", action="store_true",
                            help="skip the k >= 4, m >= 2 hypothesis checks")
            sp.add_argument("--timing", action="store_true",
                            help="record wall-clock runtime_ms (breaks byte determinism)")

    sp = sub.add_parser("coeffs", help="emit the composition-count table")
    sp.add_argument("--k", required=True, help="uniformity value(s): 4, 4,5 or 4..6")
    sp.add_argument("--m", required=True, help="multiplicity cap (integer or 'inf')")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(sp)
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("count", help="count the k-multisets of the universe")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    add_common(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("construct", help="build a named family and dump or count it")
    sp.add_argument("target", choices=_MULTISET_TARGETS + _SET_TARGETS)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--sparse", action="store_true", help="sparse multiset lines (i^mu)")
    add_common(sp)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("verify-theorem", help="exhaustive bound and uniqueness check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", required=True)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    add_common(sp, workers=True)
    sp.set_defaults(func=_cmd_verify_theorem)

    sp = sub.add_parser("verify-lemma", help="exhaustive structural checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", required=True)
    sp.add_argument("--which", choices=search.LEMMA_CHECKS + ("all",), default="all")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    add_common(sp, workers=True)
    sp.set_defaults(func=_cmd_verify_lemma)

    sp = sub.add_parser("enumerate-maximal", help="list maximal intersecting subset families")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--up-to-iso", action="store_true",
                    help="one representative per isomorphism class")
    sp.add_argument("--cap-override", action="store_true")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    add_common(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("grid", help="verify-theorem over a parameter grid, CSV summary")
    sp.add_argument("--k", required=True, help="uniformity values, e.g. 4,5")
    sp.add_argument("--m", required=True, help="cap values, e.g. 2,3,inf")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--report-dir", help="also write one JSON report per grid cell")
    add_common(sp, workers=True)
    sp.set_defaults(func=_cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, SearchCapError, fileio.FileFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
