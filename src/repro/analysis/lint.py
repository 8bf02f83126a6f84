"""Protocol-aware lint framework for the DOoC runtime.

The runtime's correctness rests on conventions no general-purpose linter
knows about: ``LocalStore`` methods return ``Effect`` lists that the
driver must execute, blocking calls must not run under runtime locks,
and trace event names must come from the central vocabulary
(:mod:`repro.obs.vocab`).  This module provides the machinery — the
per-file and whole-program rule registries, ``# dooc: noqa[CODE]``
suppressions, the per-directory relaxations and path walking — while
:mod:`repro.analysis.rules` provides the per-file rules and
:mod:`repro.analysis.flow.rules_deep` the interprocedural ones
(``DOOC000`` is reserved for files the analyzer cannot parse; run
``python -m repro lint --list-rules`` for the live catalog).

Run it as ``python -m repro lint [paths]`` (see :mod:`repro.analysis.cli`)
or call :func:`lint_paths` / :func:`lint_source` directly from tests.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterable

__all__ = [
    "Violation",
    "Rule",
    "RULES",
    "DEEP_RULES",
    "register",
    "register_deep",
    "lint_source",
    "lint_file",
    "lint_paths",
    "DEFAULT_PATH_RELAXATIONS",
    "EFFECT_FUNCS",
]

#: code used when a file cannot be parsed at all
PARSE_ERROR_CODE = "DOOC000"

#: ``LocalStore`` methods returning ``list[Effect]`` the caller must execute
#: (DOOC002, DOOC012); a test keeps it equal to the methods so annotated
EFFECT_FUNCS = frozenset({
    "release", "prefetch", "delete_array", "retain", "abandon_write",
    "on_loaded", "on_spilled", "on_remote_data",
    "on_load_failed", "on_fetch_failed", "on_spill_failed",
    "rehome_local", "rehome_remote", "recover_remote",
    "_apply", "_admit", "_deny", "_forget_blocks", "_purge_blocks",
    "_pump_allocs", "_wake_readers", "_reclaim", "_fail_waiters",
})

#: directories whose files exercise the raw protocol on purpose (tests poke
#: the storage state machine directly and assert on the returned effects)
#: — the protocol rules would drown them in noise, so only the rules that
#: stay meaningful there run by default.  Override with ``--strict`` or an
#: explicit ``--select``.
DEFAULT_PATH_RELAXATIONS: dict[str, frozenset[str]] = {
    # DOOC005 is relaxed in tests/benchmarks: crash-injection tests write
    # deliberately torn .blk/.ckpt files to prove recovery rejects them.
    # DOOC007 likewise: corruption tests may hand-craft broken compressed
    # streams without routing them through the codec registry.
    # The deep rules (DOOC010..DOOC012) are relaxed there too: the
    # zero-copy tests mutate sealed views *on purpose* to prove the
    # runtime raises, and storage unit tests poke effect lists directly.
    "tests": frozenset({"DOOC002", "DOOC004", "DOOC005", "DOOC007",
                        "DOOC010", "DOOC011", "DOOC012"}),
    "benchmarks": frozenset({"DOOC002", "DOOC004", "DOOC005", "DOOC007",
                             "DOOC010", "DOOC011", "DOOC012"}),
    "examples": frozenset({"DOOC002", "DOOC012"}),
}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule code anchored to a source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Rule:
    """A registered lint rule.

    ``check`` receives the parsed module and the path and yields
    :class:`Violation` records; suppression and selection are handled by
    the framework, so rules simply report everything they see.
    """

    code: str
    name: str
    description: str
    check: Callable[[ast.Module, str], "Iterable[Violation]"]


#: code -> rule; populated by :func:`register` (see repro.analysis.rules)
RULES: dict[str, Rule] = {}

#: code -> whole-program rule; populated by :func:`register_deep` (see
#: repro.analysis.flow.rules_deep).  Deep rules receive a
#: :class:`repro.analysis.flow.Program` instead of a single module and
#: only run under ``lint --deep``.
DEEP_RULES: dict[str, Rule] = {}


def _register_into(registry: dict[str, Rule], code: str, name: str,
                   description: str):
    def deco(fn):
        if code in RULES or code in DEEP_RULES:
            raise ValueError(f"rule code {code} registered twice")
        registry[code] = Rule(code, name, description, fn)
        return fn

    return deco


def register(code: str, name: str, description: str):
    """Class/function decorator adding a per-file checker to the registry."""
    return _register_into(RULES, code, name, description)


def register_deep(code: str, name: str, description: str):
    """Decorator adding a whole-program checker (``lint --deep``)."""
    return _register_into(DEEP_RULES, code, name, description)


def all_rules() -> dict[str, Rule]:
    """Every registered rule, per-file and deep, after importing both
    rule modules (the registries populate on import)."""
    import repro.analysis.rules  # noqa: F401
    import repro.analysis.flow.rules_deep  # noqa: F401
    return {**RULES, **DEEP_RULES}


# -- suppressions -----------------------------------------------------------

_NOQA_RE = re.compile(r"#\s*dooc:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.I)


def _suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """line -> suppressed codes (``None`` = all codes) from noqa comments."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if not m:
            continue
        codes = m.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return out


def _suppressed(v: Violation,
                noqa: dict[int, frozenset[str] | None]) -> bool:
    codes = noqa.get(v.line, frozenset())
    return codes is None or v.code in codes


# -- running ----------------------------------------------------------------


def _active_rules(registry: dict[str, Rule],
                  select: Iterable[str] | None,
                  ignore: Iterable[str] | None) -> list[Rule]:
    """Rules of ``registry`` left active by select/ignore.

    Codes are validated against *every* registered rule (per-file and
    deep), so ``--select DOOC010`` is legal for the per-file pass — it
    just activates nothing there.
    """
    known = set(all_rules()) | {PARSE_ERROR_CODE}
    selected = set(select) if select else set(registry)
    ignored = set(ignore) if ignore else set()
    unknown = (selected | ignored) - known
    if unknown:
        raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
    return [registry[c] for c in sorted((selected - ignored) & set(registry))]


def lint_source(source: str, path: str = "<string>", *,
                select: Iterable[str] | None = None,
                ignore: Iterable[str] | None = None) -> list[Violation]:
    """Lint one source string; returns unsuppressed violations, sorted."""
    # Rules live in a sibling module; importing here keeps `import
    # repro.analysis.lint` cheap and cycle-free.
    from repro.analysis import rules as _rules  # noqa: F401
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(PARSE_ERROR_CODE, path, exc.lineno or 1,
                          (exc.offset or 1) - 1,
                          f"could not parse file: {exc.msg}")]
    noqa = _suppressions(source)
    out: list[Violation] = []
    for rule in _active_rules(RULES, select, ignore):
        for v in rule.check(tree, path):
            if not _suppressed(v, noqa):
                out.append(v)
    out.sort(key=lambda v: (v.line, v.col, v.code))
    return out


def _path_relaxations(path: Path) -> frozenset[str]:
    relaxed: set[str] = set()
    for part in path.parts:
        relaxed |= DEFAULT_PATH_RELAXATIONS.get(part, frozenset())
    return frozenset(relaxed)


def lint_file(path: Path | str, *,
              select: Iterable[str] | None = None,
              ignore: Iterable[str] | None = None,
              strict: bool = False) -> list[Violation]:
    """Lint one file, applying the per-directory default relaxations."""
    path = Path(path)
    effective_ignore = set(ignore or ())
    if not strict and select is None:
        effective_ignore |= _path_relaxations(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), select=select,
                       ignore=effective_ignore or None)


def iter_python_files(paths: Iterable["Path | str"]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    A path that does not exist is a usage error (``ValueError``), not an
    empty tree: a typo in a path list must not lint clean.
    """
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise ValueError(f"no such file or directory: {raw}")
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            candidates = []
        for c in candidates:
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def lint_paths(paths: Iterable["Path | str"], *,
               select: Iterable[str] | None = None,
               ignore: Iterable[str] | None = None,
               strict: bool = False) -> list[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories), in
    sorted path order."""
    select_t = tuple(select) if select else None
    ignore_t = tuple(ignore) if ignore else None
    out: list[Violation] = []
    for path in iter_python_files(paths):
        out.extend(lint_file(path, select=select_t, ignore=ignore_t,
                             strict=strict))
    return out
