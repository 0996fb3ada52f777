"""The astheno commands shown in README.md run as documented."""

import re
import shlex
from pathlib import Path

from astheno.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list:
    """Every `astheno ...` line of the fenced blocks, continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("astheno "):
                commands.append(line)
    return commands


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert commands
    for command in commands:
        code = main(shlex.split(command)[1:])
        capsys.readouterr()
        assert code in (0, 1), command
