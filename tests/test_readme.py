"""README's library quick start and CLI transcript run as written.

Its two ``python`` blocks share one namespace: the second uses the
first's ``mu`` and ``eta``.  Each ``$ decoyqkd`` line of its ``text``
block runs through cli.main, and prints every output line shown below
it: a ``...`` line stands for lines left out, and an inline ``...`` for
part of a line.
"""

import re
from pathlib import Path

from decoyqkd import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert f"{namespace['mu']:.4f}" == "0.4789"  # as its comment says
    assert namespace["res"].result.key_bits_lower > 0.0


def test_readme_cli_transcript_runs_as_shown(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"^```text\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL)
    sessions = re.findall(r"^\$ decoyqkd (.*)\n((?:(?!\$ ).*\n)*)", block, re.MULTILINE)
    assert len(sessions) == 4
    monkeypatch.chdir(tmp_path)  # scan writes its --out file here
    for command, shown in sessions:
        assert cli.main(command.split()) == 0, command
        captured = capsys.readouterr()
        assert captured.err == "", command  # no note: e.g. table2's optimum is interior
        printed = captured.out.splitlines()
        for line in shown.splitlines():
            if line in ("", "..."):
                continue
            pattern = ".*".join(re.escape(part) for part in line.split(" ... "))
            assert any(re.fullmatch(pattern, out) for out in printed), (command, line)
