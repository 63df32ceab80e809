"""The docs check's orphan-symbol and knob rules, on planted trees."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_orphan_check_flags_exactly_the_tests_only_symbol(tmp_path):
    _write(tmp_path, "src/repro/__init__.py", "from .lib import used, tested, listed\n")
    _write(
        tmp_path,
        "src/repro/lib.py",
        '__all__ = ["used", "tested", "listed"]\n\n\n'
        "def used():\n    return used\n\n\n"
        "def tested():\n    return tested()\n\n\n"
        "def listed():\n    pass\n",
    )
    _write(tmp_path, "src/repro/app.py", "from .lib import used\n\nused()\n")
    _write(tmp_path, "tests/test_lib.py", "from repro.lib import listed, tested\n")
    _write(tmp_path, "bench/tests/test_bench.py", "from repro.lib import tested\n")
    _write(
        tmp_path,
        "DESIGN.md",
        "# Design\n\n## 3. System inventory\n\n| `listed` | `repro/lib.py` |\n\n## 4. Next\n",
    )
    errors = check_docs._orphan_symbol_errors(tmp_path)
    assert len(errors) == 1
    assert "`tested`" in errors[0]


def test_knob_check_flags_exactly_the_tests_only_field(tmp_path):
    _write(
        tmp_path,
        "src/repro/config.py",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass RetryPolicy:\n"
        "    direct: int = 0\n    forwarded: int = 0\n    via_dict: int = 0\n"
        "    listed: int = 0\n    tested: int = 0\n\n\n"
        "def build(**overrides):\n    return RetryPolicy(**overrides)\n",
    )
    _write(
        tmp_path,
        "src/repro/app.py",
        "from .config import RetryPolicy, build\n\n"
        "RetryPolicy(direct=1)\nbuild(forwarded=2)\n"
        'CELLS = [{"via_dict": 3}]\nbuild(**CELLS[0])\n'
        "# an unrelated call: tested=4 here sets nothing\nprint(tested=4)\n",
    )
    _write(tmp_path, "tests/test_config.py", "from repro.config import build\n\nbuild(tested=5)\n")
    _write(
        tmp_path,
        "DESIGN.md",
        "# Design\n\n## 3. System inventory\n\n- `RetryPolicy.listed`: kept on purpose.\n\n"
        "## 4. Next\n\n- `RetryPolicy.tested`: outside §3, so no excuse.\n",
    )
    errors = check_docs._knob_errors(tmp_path)
    assert len(errors) == 1
    assert "`RetryPolicy.tested`" in errors[0]
