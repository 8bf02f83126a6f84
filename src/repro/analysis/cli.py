"""``python -m repro lint`` — run the protocol-aware linter.

    python -m repro lint src
    python -m repro lint src tests --json
    python -m repro lint src --select DOOC002,DOOC003
    python -m repro lint tests --strict     # disable per-dir relaxations
    python -m repro lint src --deep         # every rule, whole-program too
    python -m repro lint --list-rules       # the rule table docs/ANALYSIS.md embeds

Exit status: 0 clean, 1 violations found, 2 usage error (an unknown rule
code, or a path that does not exist).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

from repro.analysis.lint import (
    DEEP_RULES,
    DEFAULT_PATH_RELAXATIONS,
    all_rules,
    iter_python_files,
    lint_paths,
)


def _codes(raw: str | None) -> list[str] | None:
    return None if raw is None else [
        c.strip().upper() for c in raw.split(",") if c.strip()]


def _rule_span() -> str:
    """The live rule range for the help text, derived from the registry
    so new rules can never drift the docs again."""
    codes = sorted(all_rules())
    return f"rules {codes[0]}..{codes[-1]}" if codes else "no rules"


def _rule_catalog() -> str:
    """What ``--list-rules`` prints: the rule table (markdown, embedded in
    docs/ANALYSIS.md) with the default relaxations beneath it."""
    lines = [
        "| Code | Name | Scope | What it catches |",
        "|------|------|-------|-----------------|",
        "| `DOOC000` | parse-error | file | File could not be parsed; "
        "nothing else was checked. |",
    ]
    for code, rule in sorted(all_rules().items()):
        scope = "program" if code in DEEP_RULES else "file"
        lines.append(f"| `{code}` | {rule.name} | {scope} "
                     f"| {rule.description} |")
    lines += ["", "Default relaxations (lifted by `--strict` or `--select`):",
              ""]
    for prefix, codes in sorted(DEFAULT_PATH_RELAXATIONS.items()):
        lines.append(f"- `{prefix}/`: " + ", ".join(sorted(codes)) + " off")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Protocol-aware lint for the DOoC runtime "
                    f"({_rule_span()}; see docs/ANALYSIS.md).",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run exclusively")
    parser.add_argument("--ignore", metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--deep", action="store_true",
                        help="also run the whole-program dataflow rules "
                             "(call-graph + alias/escape analysis)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a JSON report (violations, file count, "
                             "wall time)")
    parser.add_argument("--strict", action="store_true",
                        help="disable the built-in per-directory "
                             "relaxations (tests/, benchmarks/, examples/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and the default "
                             "relaxations, then exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_rule_catalog(), end="")
        return 0

    select = _codes(args.select)
    ignore = _codes(args.ignore)
    started = time.monotonic()
    try:
        violations = lint_paths(args.paths, select=select, ignore=ignore,
                                strict=args.strict)
        if args.deep:
            from repro.analysis.flow import deep_lint_paths
            violations = violations + deep_lint_paths(
                args.paths, select=select, ignore=ignore,
                strict=args.strict)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_time = time.monotonic() - started

    if args.as_json:
        print(json.dumps({
            "violations": [v.to_json() for v in violations],
            "files": len(iter_python_files(args.paths)),
            "wall_time_s": round(wall_time, 3),
            "deep": args.deep,
        }, indent=2))
    else:
        for v in violations:
            print(v.render())
        if violations:
            counts = Counter(v.code for v in violations)
            summary = ", ".join(f"{c} x{n}" for c, n in sorted(counts.items()))
            print(f"{len(violations)} violation(s): {summary}",
                  file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
