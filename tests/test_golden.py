"""The golden CLI corpus: every case under ``tests/golden/`` run twice and compared byte for byte.

A case is a directory of plain files:

- ``argv.json``: the arguments after ``crossmap``, as a JSON list, with relative paths only;
- ``stdin``: the bytes on standard input (optional; empty when absent);
- ``input/``: files copied into the run's directory before the run (optional);
- ``exit_code``, ``stdout``, ``stderr``: the expected exit code and bytes;
- ``output/``: every file the run leaves behind that ``input/`` does not already hold
  byte for byte, such as ``--out`` targets and ``--provenance`` logs (optional).

Each case runs in a fresh temporary directory holding only ``input/``: once
in-process through ``cli.main``, and once as a subprocess of the ``crossmap``
console script, or of ``python -m crossmaps.cli`` where no script is on
``PATH``.  After the run the directory must hold exactly ``input/`` overlaid
with ``output/``, so a leftover temporary file fails too.  The one mask: the
``timestamp`` value of each record in the file named by ``--provenance`` is
compared as ``<masked>``.  These tests never write into ``tests/golden/``; a
change that moves an output byte edits the expected file in its own diff.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from crossmaps import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir())
REQUIRED = {"argv.json", "exit_code", "stdout", "stderr"}
OPTIONAL_FILES, OPTIONAL_DIRS = {"stdin"}, {"input", "output"}
STAMP = re.compile(rb'"timestamp": "\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(?:\.\d{6})?\+00:00"')
MASKED = b'"timestamp": "<masked>"'


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path, with its bytes."""
    if not root.is_dir():
        return {}
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _argv(case: Path) -> list[str]:
    return json.loads((case / "argv.json").read_text(encoding="utf-8"))


def _exit_code(case: Path) -> int:
    return int((case / "exit_code").read_text(encoding="utf-8"))


def _in_process(argv: list[str], stdin: bytes, cwd: Path, monkeypatch) -> tuple[int, bytes, bytes]:
    # Text streams like the real ones on POSIX: UTF-8, no newline translation,
    # and standard input over a buffer named "<stdin>", which parse documents
    # quote; the CLI reads standard input's bytes through that ``.buffer``.
    buffer = io.BytesIO(stdin)
    buffer.name = "<stdin>"
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n") for _ in range(2))
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(buffer, encoding="utf-8", newline="\n"))
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def _subprocess(argv: list[str], stdin: bytes, cwd: Path, monkeypatch) -> tuple[int, bytes, bytes]:
    script = shutil.which("crossmap")
    command = [script] if script else [sys.executable, "-m", "crossmaps.cli"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([*command, *argv], input=stdin, capture_output=True, cwd=cwd, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("runner", [_in_process, _subprocess], ids=["in_process", "subprocess"])
@pytest.mark.parametrize("name", CASES)
def test_case(name, runner, tmp_path, monkeypatch):
    case = GOLDEN / name
    argv = _argv(case)
    stdin = (case / "stdin").read_bytes() if (case / "stdin").exists() else b""
    if (case / "input").is_dir():
        shutil.copytree(case / "input", tmp_path, dirs_exist_ok=True)
    code, out, err = runner(argv, stdin, tmp_path, monkeypatch)
    files = _tree(tmp_path)
    if "--provenance" in argv:
        log = argv[argv.index("--provenance") + 1]
        if log in files:
            files[log] = STAMP.sub(MASKED, files[log])
    assert code == _exit_code(case)
    assert out == (case / "stdout").read_bytes()
    assert err == (case / "stderr").read_bytes()
    assert files == {**_tree(case / "input"), **_tree(case / "output")}


def test_every_subcommand_has_a_passing_and_a_failing_case():
    (subcommands,) = (a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    outcomes: dict[str, set[bool]] = {command: set() for command in subcommands.choices}
    for name in CASES:
        argv = _argv(GOLDEN / name)
        if argv and argv[0] in outcomes:
            outcomes[argv[0]].add(_exit_code(GOLDEN / name) == 0)
    assert {command: seen for command, seen in outcomes.items() if seen != {True, False}} == {}


def _layout_problem(case: Path) -> str | None:
    entries = {p.name: p for p in case.iterdir()} if case.is_dir() else {}
    if not REQUIRED <= entries.keys() <= REQUIRED | OPTIONAL_FILES | OPTIONAL_DIRS:
        return f"holds {sorted(entries)}"
    if any(path.is_dir() != (entry in OPTIONAL_DIRS) for entry, path in entries.items()):
        return "a file where a directory belongs, or the reverse"
    argv = _argv(case)
    if not isinstance(argv, list) or not all(isinstance(word, str) and not os.path.isabs(word) for word in argv):
        return f"argv {argv!r} is not a list of relative words"
    if (case / "exit_code").read_text(encoding="utf-8") != f"{_exit_code(case)}\n":
        return "exit_code is not one integer line"
    return None


def test_every_case_holds_only_the_files_the_harness_reads():
    problems = {name: _layout_problem(GOLDEN / name) for name in CASES}
    assert {name: problem for name, problem in problems.items() if problem} == {}
