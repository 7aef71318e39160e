"""Loading on first use: the lazy package surface and what each command imports."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossmaps
import crossmaps.core
import crossmaps.extraction

SRC = str(Path(crossmaps.__file__).resolve().parents[1])
MAP_CSV = "from,to,weight\nBLX,BEL,1/2\nBLX,LUX,1/2\nAUS,AUS,1\n"
DATA_CSV = "key,value\nBLX,10\nAUS,140\n"
# A bijection from MAP_CSV's targets, so it both composes after it and reverses.
NEXT_CSV = "from,to,weight\nAUS,A,1\nBEL,B,1\nLUX,L,1\n"
XWALK_CSV = "from,to\nBLX,BEL\nAUS,AUS\n"
# What the console script does, then the name of every loaded module, one a line, into argv[1].
CLI = (
    "import sys\n"
    "from crossmaps.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "open(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
UNUSED_BY_VALIDATE = (
    "crossmaps.algebra",
    "crossmaps.extraction",
    "crossmaps.graph",
    "crossmaps.transform",
    "crossmaps.validation",
    "subprocess",
    "concurrent.futures",
    "hashlib",
    "datetime",
)
# `dataclasses` and what it loads (`tokenize` also comes with `logging`); no command needs any of them.
CODE_GENERATION = ("dataclasses", "inspect", "ast", "dis", "tokenize")
COMMANDS = {
    "validate": ("validate", "m.csv"),
    "apply": ("apply", "--map", "m.csv", "--data", "d.csv"),
    "compose": ("compose", "m.csv", "n.csv"),
    "classify": ("classify", "m.csv"),
    "summarize": ("summarize", "m.csv", "--data", "d.csv"),
    "export-dot": ("export-dot", "m.csv"),
    "reverse": ("reverse", "n.csv"),
    "import-crosswalk": ("import-crosswalk", "x.csv"),
}


def _loaded(root: Path, code: str, *argv: str) -> set[str]:
    """Modules loaded by ``code`` in a fresh interpreter that starts in ``root``.

    ``-S`` skips the site hooks, which may import modules of their own.
    """
    (root / "m.csv").write_text(MAP_CSV, encoding="utf-8")
    (root / "d.csv").write_text(DATA_CSV, encoding="utf-8")
    (root / "n.csv").write_text(NEXT_CSV, encoding="utf-8")
    (root / "x.csv").write_text(XWALK_CSV, encoding="utf-8")
    listing = root / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(listing), *argv],
        cwd=root,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return set(listing.read_text(encoding="utf-8").split())


class TestImportFootprint:
    def test_import_loads_no_submodule(self, tmp_path):
        code = "import sys, crossmaps\nopen(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules)))\n"
        loaded = _loaded(tmp_path, code)
        assert "crossmaps" in loaded
        assert sorted(m for m in loaded if m.startswith("crossmaps.")) == []

    def test_validate_loads_only_what_it_runs(self, tmp_path):
        loaded = _loaded(tmp_path, CLI, "validate", "m.csv")
        assert {"crossmaps.cli", "crossmaps.core", "crossmaps.formats"} <= loaded
        assert [m for m in UNUSED_BY_VALIDATE if m in loaded] == []

    def test_provenance_loads_its_digest_and_clock(self, tmp_path):
        assert not {"hashlib", "datetime"} & _loaded(tmp_path, CLI, "apply", "--map", "m.csv", "--data", "d.csv")
        loaded = _loaded(tmp_path, CLI, "apply", "--map", "m.csv", "--data", "d.csv", "--provenance", "p.jsonl")
        assert {"crossmaps.transform", "hashlib", "datetime"} <= loaded

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_loads_no_code_generation(self, tmp_path, command):
        loaded = _loaded(tmp_path, CLI, *COMMANDS[command])
        assert [m for m in CODE_GENERATION if m in loaded] == []

    def test_star_import_loads_no_subprocess(self, tmp_path):
        # Only ExternalCommandTransform.run spawns a process, and it imports subprocess itself.
        code = "import sys\nfrom crossmaps import *\nopen(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules)))\n"
        assert "subprocess" not in _loaded(tmp_path, code)

    def test_star_import_loads_no_code_generation(self, tmp_path):
        code = "import sys\nfrom crossmaps import *\nopen(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules)))\n"
        loaded = _loaded(tmp_path, code)
        assert {f"crossmaps.{module}" for module in crossmaps._EXPORTS} <= loaded
        assert [m for m in CODE_GENERATION if m in loaded] == []


class TestLazySurface:
    def test_dir_lists_every_exported_name(self):
        assert set(crossmaps.__all__) <= set(dir(crossmaps))

    def test_unknown_attribute_is_the_standard_error(self):
        with pytest.raises(AttributeError, match=r"^module 'crossmaps' has no attribute 'no_such_name'$"):
            crossmaps.no_such_name

    def test_each_name_is_exported_by_the_module_it_is_listed_under(self):
        listed = [name for names in crossmaps._EXPORTS.values() for name in names]
        assert sorted(listed) == crossmaps.__all__  # each name once
        for module, names in crossmaps._EXPORTS.items():
            exported = importlib.import_module(f"crossmaps.{module}").__all__
            assert [name for name in names if name not in exported] == []

    def test_each_submodule_exports_its_table_entry(self):
        for module, names in crossmaps._EXPORTS.items():
            assert importlib.import_module(f"crossmaps.{module}").__all__ == names

    def test_probe_error_is_one_class(self):
        assert crossmaps.extraction.ProbeError is crossmaps.core.ProbeError is crossmaps.ProbeError
