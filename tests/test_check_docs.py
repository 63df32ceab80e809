"""The docs check's orphan-symbol rule, on a planted tree."""

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
