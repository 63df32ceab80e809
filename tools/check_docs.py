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
starts with it.

Two reverse checks catch a doc that outlives what it names: every
``--flag`` a documented ``meteorograph <verb> …``
command passes (README, EXPERIMENTS, OBSERVABILITY, the verify skill)
must be an option of that verb's subparser in
``repro.cli.build_parser()``; and every module those docs and DESIGN.md
name must still be a file — a dotted ``repro.<pkg>.<module>`` path
walks ``src/repro/`` package by package and must end on a ``.py``
module (a trailing ``.Class`` / ``._CONST`` / function after the module
is not followed), and a ``<dir>/<file>.py`` path must exist under
``src/repro/``, ``src/`` or the repo root.

Run as ``python tools/check_docs.py`` from the repo root (CI does;
``repro`` must be importable — ``pip install -e .`` or
``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
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


def _cli_flag_errors(verbs: dict[str, set[str]]) -> list[str]:
    failed = []
    for rel in _COMMAND_DOCS:
        path = ROOT / rel
        if not path.exists():
            continue
        for tokens in _documented_commands(path.read_text()):
            while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
                tokens = tokens[1:]  # PYTHONPATH=src …
            if tokens[:3] in (["python", "-m", "repro"], ["python", "-m", "repro.cli"]):
                tokens = tokens[3:]
            elif tokens[:1] == ["meteorograph"]:
                tokens = tokens[1:]
            if not tokens or tokens[0] not in verbs:
                continue
            for tok in tokens[1:]:
                m = _FLAG.match(tok)
                if m and m.group(1) not in verbs[tokens[0]]:
                    failed.append(
                        f"{rel} shows `{tokens[0]} … {m.group(1)}` but the "
                        f"`{tokens[0]}` verb has no such option"
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

    from repro.cli import build_parser

    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    failed.extend(
        _cli_flag_errors(
            {
                verb: {opt for act in sub._actions for opt in act.option_strings}
                for verb, sub in subparsers.choices.items()
            }
        )
    )

    failed.extend(_module_path_errors())

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
