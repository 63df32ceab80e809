"""Docs ↔ code link check (CI gate).

EXPERIMENTS.md names runnable experiments with the ``**Title
(`id`).**`` convention; every such id must resolve in the
``repro.experiments.ALL_EXPERIMENTS`` registry (which in turn means a
module under ``src/repro/experiments/`` backs it).  Catches the drift
where a doc entry outlives a renamed or deleted experiment — the
failure mode the read-path documentation pass exists to prevent.

Also verifies that every committed ``results/<id>.csv`` whose id is in
the registry is indexed by ``results/manifest.json``, so the artifact
directory stays discoverable.

Three taxonomy checks keep OBSERVABILITY.md honest the same way: every
``lsh.*`` instrument the LSH subsystem emits must appear in the
instrument table, so must every ``linkfault.*`` /
``maint.antientropy.*`` instrument of the message-plane fault
subsystem, and so must every ``routing.*`` instrument — these are not
listed here but read off the code: each ``"routing.<name>"`` string
literal under ``src/repro/overlay/`` needs a row of the table that
starts with it.  The read and write engines' ``retrieve.*`` and
``publish.*`` instruments are read off ``src/repro/core/`` the same way,
in both directions: each ``"retrieve.<name>"`` / ``"publish.<name>"``
literal (an f-string's ``{reason}`` reads as the row's ``<reason>``)
needs a row, and each row naming such an instrument — a row may name
several, joined by `` / `` — needs a literal that still emits it.

Three gate-table checks keep the docs on ``src/repro/gates.py``: every
``meteorograph check <id>`` a doc shows must name a row (or ``all``);
every row id must appear, in backticks, in DESIGN.md §4's index; and
every EXPERIMENTS.md entry (a ``##`` section or a ``**Title (`id`).**``
paragraph) that states a verdict must name the row that re-checks it
as ``meteorograph check <id>``.

Two reverse checks catch a doc that outlives what it names: every
documented ``meteorograph <verb> …`` command (README, EXPERIMENTS,
OBSERVABILITY, the verify skill) must name a verb of
``repro.cli.build_parser()`` and pass only options of that verb's
subparser; and every module those docs and DESIGN.md
name must still be a file — a dotted ``repro.<pkg>.<module>`` path
walks ``src/repro/`` package by package and must end on a ``.py``
module (a trailing ``.Class`` / ``._CONST`` / function after the module
is not followed), and a ``<dir>/<file>.py`` path must exist under
``src/repro/``, ``src/`` or the repo root.

One orphan check keeps ``src/`` to what the system reaches: every
public top-level function or class under ``src/repro/``, and every
public method of ``Meteorograph``, needs a referrer — a use outside its
own definition, a package ``__init__``'s re-export lines, ``__all__``
and any ``tests/`` directory, in ``src/``, ``examples/``, ``bench/`` or
``tools/`` (a name, an attribute, an import or an identifier-shaped
string such as a wrapper's ``"item_keys"``) — or its name in backticks
in DESIGN.md §3.  A symbol that only tests reach belongs under
``tests/`` or nowhere.

One layer-table check keeps ``tools/profile_layers.py`` attributing
every sample: each module under ``src/repro/`` must match a row of its
``LAYERS`` path table (its own, or its package's ``pkg/`` row), and each
row must still match a module.

One knob check keeps the configuration to what is used: every field of
``MeteorographConfig``, ``RetryPolicy`` and ``OverloadPolicy`` needs a
setter outside ``tests/`` — a keyword of a call to the class, or to a
function that passes its ``**kwargs`` on to one, or a key of a dict
literal (or ``dict(...)`` keyword) in a file that splats a dict into
such a call — or a DESIGN.md §3 line naming it as `` `Class.field` ``
with the reason it stays.

Run as ``python tools/check_docs.py`` from the repo root (CI does;
``repro`` must be importable — ``pip install -e .`` or
``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PKG = ROOT / "src" / "repro"

#: ``**X-BUILD (`buildscale`).**`` → ``buildscale``
_ENTRY = re.compile(r"\*\*[^*\n]+\(`([a-z0-9_]+)`\)\.?\*\*")

#: Docs whose ``meteorograph <verb> --flag`` commands are checked.
_COMMAND_DOCS = (
    "README.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    ".claude/skills/verify/SKILL.md",
)
_FLAG = re.compile(r"^(--[a-z][a-z0-9-]*)")

#: Docs whose module references are checked against the tree.
_MODULE_DOCS = _COMMAND_DOCS + ("DESIGN.md",)
_DOTTED = re.compile(r"\brepro((?:\.\w+)+)")
_PY_PATH = re.compile(r"[\w.*-]+(?:/[\w.*-]+)+\.py\b")

#: ``"routing.rows_built"`` as a string literal in overlay source.
_ROUTING_LITERAL = re.compile(r"""["'](routing\.[a-z0-9_.]+)["']""")
#: The engine prefixes whose ``src/repro/core/`` literals ↔ rows are checked.
_CORE_PREFIXES = ("retrieve", "publish")
#: An instrument row's first cell: `` `a` `` or `` `a` / `b` / `c` ``.
_ROW_CELL = re.compile(r"^\| (`[^`|]+`(?: / `[^`|]+`)*) \|", re.M)


def _documented_commands(text: str) -> list[list[str]]:
    """Token lists of the CLI commands a markdown file shows: fenced
    code lines (minus ``# comments``) and inline code spans, which may
    wrap across lines.  Commands with ``<placeholders>`` are skipped."""
    prose: list[str] = []
    candidates: list[str] = []
    fenced = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            candidates.append(line.split("#", 1)[0])
        else:
            prose.append(line)
    candidates.extend(re.findall(r"`([^`]+)`", "\n".join(prose)))
    return [c.split() for c in candidates if "<" not in c]


def _cli_flag_errors(verbs: dict[str, set[str]], gates: set[str]) -> list[str]:
    failed = []
    for rel in _COMMAND_DOCS:
        path = ROOT / rel
        if not path.exists():
            continue
        for tokens in _documented_commands(path.read_text()):
            while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
                tokens = tokens[1:]  # PYTHONPATH=src …
            cli = tokens[:3] in (["python", "-m", "repro"], ["python", "-m", "repro.cli"])
            if cli:
                tokens = tokens[3:]
            elif tokens[:1] == ["meteorograph"]:
                tokens, cli = tokens[1:], True
            if cli and tokens and tokens[0] not in verbs and not tokens[0].startswith("-"):
                failed.append(f"{rel} shows `{tokens[0]}` as a CLI verb but there is none")
            if not tokens or tokens[0] not in verbs:
                continue
            if tokens[0] == "check":
                failed.extend(
                    f"{rel} shows `check {tok}` but src/repro/gates.py has no "
                    "such row"
                    for tok in tokens[1:]
                    if not tok.startswith("-") and tok != "all" and tok not in gates
                )
            for tok in tokens[1:]:
                m = _FLAG.match(tok)
                if m and m.group(1) not in verbs[tokens[0]]:
                    failed.append(
                        f"{rel} shows `{tokens[0]} … {m.group(1)}` but the "
                        f"`{tokens[0]}` verb has no such option"
                    )
    return failed


#: A verdict-bearing EXPERIMENTS.md entry names its row this way.
_CHECK_REF = re.compile(r"meteorograph check ([a-z0-9-]+)")
#: Where an EXPERIMENTS.md entry starts: a heading or a titled paragraph.
_ENTRY_START = re.compile(r"^(?:## |\*\*[^*\n]+\(`[a-z0-9_]+`\)\.?\*\*)", re.M)


def _gate_doc_errors(gates: set[str], design: str, experiments: str) -> list[str]:
    """Row ids ↔ DESIGN.md §4's index, and verdicts ↔ rows."""
    section = design.split("\n## 4.", 1)[-1].split("\n## ", 1)[0]
    failed = [
        f"gate row `{gid}` is missing from DESIGN.md §4's index"
        for gid in sorted(gates)
        if f"`{gid}`" not in section
    ]
    starts = [m.start() for m in _ENTRY_START.finditer(experiments)]
    for lo, hi in zip(starts, starts[1:] + [len(experiments)]):
        entry = experiments[lo:hi]
        if "Verdict" not in entry:
            continue
        title = entry.splitlines()[0].strip("#* ")
        named = _CHECK_REF.findall(entry)
        if not named:
            failed.append(
                f"EXPERIMENTS.md entry `{title}` states a verdict but names "
                "no `meteorograph check <id>` row"
            )
        failed.extend(
            f"EXPERIMENTS.md entry `{title}` names `check {gid}` but "
            "src/repro/gates.py has no such row"
            for gid in named
            if gid not in gates
        )
    return failed


def _dotted_resolves(segments: list[str]) -> bool:
    """``["sim", "metrics", "MetricSink"]`` → is there a module file?"""
    path = _PKG
    for seg in segments:
        if (path / seg).is_dir():
            path = path / seg
        elif (path / f"{seg}.py").is_file():
            return True
        else:
            # An attribute of the package reached so far (class,
            # constant) is fine; a lowercase name is a missing module.
            return not seg[0].islower()
    return True


def _module_path_errors() -> list[str]:
    failed = []
    bases = (_PKG, ROOT / "src", ROOT)
    for rel in _MODULE_DOCS:
        path = ROOT / rel
        if not path.exists():
            continue
        text = path.read_text()
        for tail in sorted(set(_DOTTED.findall(text))):
            if not _dotted_resolves(tail[1:].split(".")):
                failed.append(
                    f"{rel} names `repro{tail}` but no module under "
                    "src/repro/ backs it"
                )
        for ref in sorted(set(_PY_PATH.findall(text))):
            if not any(any(base.glob(ref)) for base in bases):
                failed.append(
                    f"{rel} names `{ref}` but no such file exists under "
                    "src/repro/, src/ or the repo root"
                )
    return failed


def _routing_instrument_errors(obs_text: str) -> list[str]:
    """Every ``"routing.<name>"`` literal the overlay package emits must
    head a row of OBSERVABILITY.md's instrument table."""
    emitted: set[str] = set()
    for path in (_PKG / "overlay").glob("*.py"):
        emitted.update(_ROUTING_LITERAL.findall(path.read_text()))
    return [
        f"routing instrument `{name}` is emitted under src/repro/overlay/ "
        "but has no row in OBSERVABILITY.md's instrument table"
        for name in sorted(emitted)
        if f"\n| `{name}` |" not in obs_text
    ]


def _core_instrument_errors(obs_text: str, prefix: str) -> list[str]:
    """``<prefix>.*`` literals under ``src/repro/core/`` ↔ instrument
    rows, both ways: a ``<placeholder>`` segment of a row matches any
    name, and an f-string's ``{field}`` reads as ``<field>``."""
    literal = re.compile(rf"""["']({prefix}\.[a-z0-9_.{{}}]+)["']""")
    emitted: set[str] = set()
    for path in (_PKG / "core").glob("*.py"):
        for name in literal.findall(path.read_text()):
            emitted.add(re.sub(r"\{(\w+)\}", r"<\1>", name))
    rows = {
        row: re.compile(
            "[a-z0-9_<>]+".join(map(re.escape, re.split(r"<\w+>", row))) + "$"
        )
        for cell in _ROW_CELL.findall(obs_text)
        for row in re.findall(r"`([^`]+)`", cell)
        if row.startswith(f"{prefix}.")
    }
    failed = [
        f"engine instrument `{name}` is emitted under src/repro/core/ "
        "but has no row in OBSERVABILITY.md's instrument table"
        for name in sorted(emitted)
        if not any(pattern.match(name) for pattern in rows.values())
    ]
    failed.extend(
        f"OBSERVABILITY.md documents `{row}` but nothing under "
        "src/repro/core/ emits it"
        for row, pattern in sorted(rows.items())
        if not any(pattern.match(name) for name in emitted)
    )
    return failed


#: Where a public symbol's referrers may live (``tests/`` dirs excluded).
_REFERRER_DIRS = ("src", "examples", "bench", "tools")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(node: ast.AST) -> Counter:
    """Identifiers ``node`` mentions: names, attributes, imported names
    and identifier-shaped string literals (wrapping by name)."""
    used: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.alias):
            used[n.name.rpartition(".")[2]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if n.value.isidentifier():
                used[n.value] += 1
    return used


def _orphan_symbol_errors(root: Path = ROOT) -> list[str]:
    """Public symbols under ``root/src/repro`` that nothing outside tests
    reaches and DESIGN.md §3 does not list (see the module docstring)."""
    pkg = root / "src" / "repro"
    used: Counter = Counter()
    #: (file, name, the names its own definition uses)
    symbols: list[tuple[Path, str, Counter]] = []
    for top in _REFERRER_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if "tests" in path.relative_to(root).parts:
                continue
            is_init = path.name == "__init__.py"
            for stmt in ast.parse(path.read_text()).body:
                if is_init and isinstance(stmt, ast.ImportFrom):
                    continue  # a re-export is not a use
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
                ):
                    continue
                own = _names_used(stmt)
                used.update(own)
                if not isinstance(stmt, _DEFS) or not path.is_relative_to(pkg):
                    continue
                if not stmt.name.startswith("_"):
                    symbols.append((path, stmt.name, own))
                if stmt.name == "Meteorograph":
                    symbols.extend(
                        (path, f"Meteorograph.{m.name}", _names_used(m))
                        for m in stmt.body
                        if isinstance(m, _DEFS) and not m.name.startswith("_")
                    )
    design = (root / "DESIGN.md").read_text()
    inventory = design.split("\n## 3.", 1)[-1].split("\n## ", 1)[0]
    failed = []
    for path, name, own in symbols:
        short = name.rpartition(".")[2]
        if used[short] > own[short] or f"`{name}`" in inventory:
            continue
        failed.append(
            f"{path.relative_to(root)} defines `{name}`, which nothing outside "
            "tests reaches and DESIGN.md §3 does not list: delete it, move it "
            "under tests/, or give it a §3 row"
        )
    return failed


#: The configuration dataclasses the knob check covers.
_KNOB_CLASSES = ("MeteorographConfig", "RetryPolicy", "OverloadPolicy")


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _knob_errors(root: Path = ROOT) -> list[str]:
    """Config fields that nothing outside tests sets and DESIGN.md §3
    does not explain (see the module docstring)."""
    trees = [
        (path, ast.parse(path.read_text()))
        for top in _REFERRER_DIRS
        for path in sorted((root / top).rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]
    fields: dict[str, list[str]] = {}
    for path, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in _KNOB_CLASSES:
                fields[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    # A sink of a class is the class or a function splatting its own
    # ``**kwargs`` into a sink.
    sinks = {cls: {cls} for cls in fields}
    grown = True
    while grown:
        grown = False
        for _, tree in trees:
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or not fn.args.kwarg:
                    continue
                for call in ast.walk(fn):
                    if not isinstance(call, ast.Call) or not any(
                        k.arg is None and isinstance(k.value, ast.Name)
                        and k.value.id == fn.args.kwarg.arg for k in call.keywords
                    ):
                        continue
                    for names in sinks.values():
                        if _callee(call) in names and fn.name not in names:
                            names.add(fn.name)
                            grown = True
    assigned: dict[str, set] = {cls: set() for cls in fields}
    for _, tree in trees:
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        keys = {
            k.value for n in ast.walk(tree) if isinstance(n, ast.Dict)
            for k in n.keys if isinstance(k, ast.Constant)
        } | {k.arg for c in calls if _callee(c) == "dict" for k in c.keywords}
        for cls, names in sinks.items():
            into = [c for c in calls if _callee(c) in names]
            assigned[cls].update(k.arg for c in into for k in c.keywords)
            if any(k.arg is None for c in into for k in c.keywords):
                assigned[cls].update(keys)
    design = (root / "DESIGN.md").read_text()
    inventory = design.split("\n## 3.", 1)[-1].split("\n## ", 1)[0]
    return [
        f"`{cls}.{name}` is set by nothing outside tests and DESIGN.md §3 does "
        "not say why it stays: delete it, set it, or give it a §3 line"
        for cls, names in sorted(fields.items())
        for name in names
        if name not in assigned[cls] and f"`{cls}.{name}`" not in inventory
    ]


def _layer_table_errors() -> list[str]:
    """Every ``src/repro`` module has a row in ``tools/profile_layers.py``'s
    ``LAYERS`` table, and every row names a module or package."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "profile_layers", ROOT / "tools" / "profile_layers.py"
    )
    sampler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sampler)
    modules = sampler.modules()
    failed = [
        f"tools/profile_layers.py: src/repro/{m}.py has no row in LAYERS"
        for m in modules
        if sampler.layer_of(m) is None
    ]
    packages = {m.rpartition("/")[0] + "/" for m in modules if "/" in m}
    failed += [
        f"tools/profile_layers.py: LAYERS row `{row}` names no module"
        for row in sampler.LAYERS
        if row not in packages and row not in modules
    ]
    return failed


def main() -> int:
    try:
        from repro.experiments import ALL_EXPERIMENTS
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.experiments import ALL_EXPERIMENTS

    failed: list[str] = []

    text = (ROOT / "EXPERIMENTS.md").read_text()
    documented = set(_ENTRY.findall(text))
    if not documented:
        failed.append("EXPERIMENTS.md: no **Title (`id`).** entries found")
    for exp_id in sorted(documented):
        if exp_id not in ALL_EXPERIMENTS:
            failed.append(
                f"EXPERIMENTS.md documents `{exp_id}` but it is not in "
                "repro.experiments.ALL_EXPERIMENTS"
            )

    obs_text = (ROOT / "OBSERVABILITY.md").read_text()
    # The instrument names the LSH subsystem emits (grep the package for
    # the literals): drift here means the taxonomy table went stale.
    lsh_instruments = (
        "lsh.signatures",
        "lsh.publish.items",
        "lsh.publish.copies",
        "lsh.probe.bands",
        "lsh.probe.candidates",
        "lsh.probe.unioned",
        "retrieve_multiprobe",
    )
    for name in lsh_instruments:
        if name not in obs_text:
            failed.append(
                f"LSH instrument `{name}` is emitted by repro.lsh but not "
                "documented in OBSERVABILITY.md"
            )

    chaos_instruments = (
        "linkfault.dropped",
        "linkfault.partition_dropped",
        "linkfault.duplicated",
        "linkfault.delayed",
        "linkfault.delay_jitter",
        "net.async_dead_dropped",
        "maint.antientropy.pass",
        "maint.antientropy.ticks",
        "maint.antientropy.dirtied",
        "maint.antientropy.reconciled",
        "maint.antientropy.replaced",
        "handoff_lost",
        "reconcile",
    )
    for name in chaos_instruments:
        if name not in obs_text:
            failed.append(
                f"chaos instrument `{name}` is emitted by the message-plane "
                "fault subsystem but not documented in OBSERVABILITY.md"
            )

    failed.extend(_routing_instrument_errors(obs_text))
    for prefix in _CORE_PREFIXES:
        failed.extend(_core_instrument_errors(obs_text, prefix))

    from repro.cli import build_parser
    from repro.gates import GATES

    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    failed.extend(
        _cli_flag_errors(
            {
                verb: {opt for act in sub._actions for opt in act.option_strings}
                for verb, sub in subparsers.choices.items()
            },
            set(GATES),
        )
    )
    failed.extend(_gate_doc_errors(set(GATES), (ROOT / "DESIGN.md").read_text(), text))

    failed.extend(_module_path_errors())
    failed.extend(_orphan_symbol_errors())
    failed.extend(_knob_errors())
    failed.extend(_layer_table_errors())

    manifest_path = ROOT / "results" / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        for csv_path in sorted((ROOT / "results").glob("*.csv")):
            exp_id = csv_path.stem
            if exp_id in ALL_EXPERIMENTS and exp_id not in manifest:
                failed.append(
                    f"results/{csv_path.name} is committed but missing from "
                    "results/manifest.json"
                )

    if failed:
        for line in failed:
            print(f"check_docs: {line}", file=sys.stderr)
        return 1
    print(
        f"check_docs: OK ({len(documented)} documented experiment ids, "
        f"{len(ALL_EXPERIMENTS)} registered)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
