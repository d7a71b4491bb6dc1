"""Command-line driver: character tables, hook listings, verification
sweeps, and the literal-vs-oracle pair comparison, with deterministic
JSON/CSV output.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .combinat import (
    count_semistandard,
    count_standard_multitableaux,
    format_multipartition,
    list_hook_multipartitions,
    list_multipartitions,
    mp_size,
    parse_multipartition,
)
from .formulas import CharSpec, character_value, group_character_value, pair_regev_rhs
from .operators import char_value_oracle
from .rings import expand_at_q1, specialize_to_group
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "build_parser"]

MAX_JOBS = 64


def _parse_vector(text: str, flag: str) -> tuple[int, ...]:
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")
    if not vec or any(x < 0 for x in vec):
        raise ValueError(f"{flag} entries must be nonnegative integers")
    return vec


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= jobs <= MAX_JOBS:
        raise argparse.ArgumentTypeError(f"must be in 1..{MAX_JOBS}, got {jobs}")
    return jobs


def _parse_spec_tag(text: str) -> tuple[str, int]:
    if text == "generic":
        return "generic", 0
    if text == "group":
        return "group", 0
    if text == "t2":
        return "t2", 2
    if text.startswith("t2:"):
        try:
            order = int(text[3:])
        except ValueError:
            order = 0
        if order >= 1:
            return "t2", order
    raise ValueError(f"--spec must be generic, group or t2[:D], got {text!r}")


def _resolve_shape(args) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    if args.k is None or args.l is None:
        raise ValueError("--k and --l are required")
    k = _parse_vector(args.k, "--k")
    l = _parse_vector(args.l, "--l")
    if len(k) != len(l):
        raise ValueError(f"--k and --l must have equal length ({len(k)} != {len(l)})")
    m = len(k)
    if args.m is not None and args.m != m:
        raise ValueError(f"--m {args.m} does not match vector length {m}")
    return m, k, l


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_doc(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def run_chars(args) -> int:
    m, k, l = _resolve_shape(args)
    tag, order = _parse_spec_tag(args.spec)
    if args.mu is not None:
        mu = parse_multipartition(args.mu, m)
        n = mp_size(mu)
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} does not match the size {n} of --mu")
        if n < 1:
            raise ValueError("the multipartition must be nonempty")
        mus = [mu]
    else:
        if args.n is None or args.n < 1:
            raise ValueError("chars needs --n >= 1 (or an explicit --mu)")
        n = args.n
        mus = list_multipartitions(m, n)
    spec = CharSpec(m, k, l)

    def evaluate(mu):
        if tag == "group":
            return group_character_value(mu, spec)
        value = character_value(mu, spec)
        if tag == "t2":
            return expand_at_q1(value, order)
        return value

    config = {
        "command": "chars", "m": m, "k": list(k), "l": list(l), "n": n,
        "spec": args.spec, "mu": format_multipartition(mus[0]) if args.mu else None,
    }
    if args.format == "json":
        # _json_doc of the whole table, built one row at a time: each row's
        # text is indented into the frame of a one-row table, whose row is
        # its last "0", and the rows are joined once
        head, _, tail = _json_doc({"config": config, "rows": [0]}).rpartition("0")
        rows = (
            json.dumps({"mu": [list(comp) for comp in mu],
                        "value": evaluate(mu).to_json()}, indent=2)
            .replace("\n", "\n    ")
            for mu in mus
        )
        _emit(head + ",\n    ".join(rows) + tail, args.out)
    else:
        rows = ([format_multipartition(mu), evaluate(mu).to_text()] for mu in mus)
        _emit(_csv_doc(["mu", "value"], rows), args.out)
    return 0


def run_hooks(args) -> int:
    m, k, l = _resolve_shape(args)
    if args.n is None or args.n < 0:
        raise ValueError("hooks needs --n >= 0")
    n = args.n
    rows = [
        (mu, count_semistandard(mu, k, l), count_standard_multitableaux(mu))
        for mu in list_hook_multipartitions(n, k, l)
    ]
    total = sum(s * f for _, s, f in rows)
    expected = (sum(k) + sum(l)) ** n
    config = {
        "command": "hooks", "m": m, "k": list(k), "l": list(l), "n": n,
    }
    if args.format == "json":
        doc = {
            "config": config,
            "rows": [
                {
                    "lambda": [list(comp) for comp in mu],
                    "semistandard": s,
                    "standard": f,
                }
                for mu, s, f in rows
            ],
            "footer": {"sum_sf": total, "dimension_power": expected,
                       "ok": total == expected},
        }
        _emit(_json_doc(doc), args.out)
    else:
        csv_rows = [[format_multipartition(mu), s, f] for mu, s, f in rows]
        csv_rows.append(["sum(s*f)", total, expected])
        _emit(_csv_doc(["lambda", "semistandard", "standard"], csv_rows), args.out)
    return 0 if total == expected else 1


def run_verify(args) -> int:
    if args.max_n is not None and args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    if args.n is not None and args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.m is not None and args.m < 1:
        raise ValueError("--m must be positive")
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    results = [
        run_suite(name, max_n=args.max_n, m_only=args.m, n_only=args.n)
        for name in names
    ]
    if not any(result.cases for result in results):
        bounds = [f"{flag} {value}" for flag, value in
                  (("--max-n", args.max_n), ("--m", args.m), ("--n", args.n))
                  if value is not None]
        raise ValueError(f"--suite {args.suite} runs no case with "
                         f"{' '.join(bounds) or 'its default bounds'}")
    all_ok = all(result.ok for result in results)
    if args.format == "json":
        doc = {
            "config": {"command": "verify", "suite": args.suite,
                       "max_n": args.max_n, "m": args.m, "n": args.n},
            "suites": [
                {"name": result.name, "cases": result.cases,
                 "failures": result.failures}
                for result in results
            ],
            "ok": all_ok,
        }
        _emit(_json_doc(doc), args.out)
    else:
        lines = []
        for result in results:
            status = ("FAIL" if not result.ok else "pass" if result.cases
                      else "empty")
            lines.append(
                f"suite {result.name}: {result.cases} cases, "
                f"{len(result.failures)} failures [{status}]"
            )
            if result.failures:
                lines.append(
                    "  counterexample: " + json.dumps(result.failures[0])
                )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def run_compare_pair(args) -> int:
    ones = (1, 1)
    if args.max_n < 1:
        raise ValueError("--max-n must be positive")
    if args.n is not None:
        if args.n < 1:
            raise ValueError("--n must be positive")
        sizes = [args.n]
    else:
        sizes = list(range(1, args.max_n + 1))

    def evaluate(mu):
        stated_series, stated_group = pair_regev_rhs(mu)
        oracle = char_value_oracle(mu, ones, ones)
        oracle_series = expand_at_q1(oracle.substitute_u_one(1), 2)
        oracle_group = specialize_to_group(oracle, 2).as_integer()
        return {
            "mu": [list(comp) for comp in mu],
            "stated_series": stated_series.to_json(),
            "stated_series_text": stated_series.to_text(),
            "oracle_series": oracle_series.to_json(),
            "oracle_series_text": oracle_series.to_text(),
            "series_equal": stated_series == oracle_series,
            "stated_group": stated_group,
            "oracle_group": oracle_group,
            "group_equal": stated_group == oracle_group,
        }

    rows = [evaluate(mu) for n in sizes for mu in list_multipartitions(2, n)]
    config = {"command": "compare-pair-regev", "sizes": sizes,
              "k": list(ones), "l": list(ones)}
    if args.format == "json":
        doc = {"config": config, "rows": rows}
        _emit(_json_doc(doc), args.out)
    else:
        csv_rows = [
            [
                format_multipartition(row["mu"]),
                row["stated_series_text"], row["oracle_series_text"],
                row["series_equal"], row["stated_group"], row["oracle_group"],
                row["group_equal"],
            ]
            for row in rows
        ]
        _emit(
            _csv_doc(
                ["mu", "stated_series", "oracle_series", "series_equal",
                 "stated_group", "oracle_group", "group_equal"],
                csv_rows,
            ),
            args.out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akchar",
        description="Exact character values of Ariki-Koike algebras on "
                    "graded tensor powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_shape=True, formats=("json", "csv")):
        if with_shape:
            p.add_argument("--m", type=int, default=None,
                           help="number of colors (checked against --k/--l)")
            p.add_argument("--k", default=None,
                           help="comma-separated even letter counts per color")
            p.add_argument("--l", default=None,
                           help="comma-separated odd letter counts per color")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--jobs", type=_jobs, default=1,
                       help=f"accepted for compatibility, 1..{MAX_JOBS}; "
                            "evaluation is sequential and the value does not "
                            "change the output")

    chars = sub.add_parser("chars", help="character table for all multipartitions of n")
    add_common(chars)
    chars.add_argument("--n", type=int, default=None, help="total size")
    chars.add_argument("--mu", default=None,
                       help='single multipartition as JSON, e.g. "[[3,1],[],[2]]"')
    chars.add_argument("--spec", default="generic",
                       help="value specialization: generic | group | t2[:D]")

    hooks = sub.add_parser("hooks", help="hook shapes with tableau counts")
    add_common(hooks)
    hooks.add_argument("--n", type=int, default=None, help="total size")

    verify = sub.add_parser("verify", help="run verification sweeps")
    verify.add_argument("--suite", default="all",
                        help=f"one of {', '.join(SUITE_NAMES)} or all")
    verify.add_argument("--max-n", type=int, default=None, dest="max_n",
                        help="override the suite's upper size bound")
    verify.add_argument("--m", type=int, default=None,
                        help="restrict the sweep to one color count")
    verify.add_argument("--n", type=int, default=None,
                        help="restrict the sweep to one size")
    add_common(verify, with_shape=False, formats=("text", "json"))

    compare = sub.add_parser(
        "compare-pair-regev",
        help="report the literal two-component shortcut next to the oracle",
    )
    compare.add_argument("--n", type=int, default=None, help="single size")
    compare.add_argument("--max-n", type=int, default=4, dest="max_n",
                         help="sweep sizes 1..max-n (default 4)")
    add_common(compare, with_shape=False)

    return parser


_RUNNERS = {
    "chars": run_chars,
    "hooks": run_hooks,
    "verify": run_verify,
    "compare-pair-regev": run_compare_pair,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return _RUNNERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
