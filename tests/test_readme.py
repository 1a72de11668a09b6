"""README's shell commands against the CLI's parser.

Every ``blockcast ...`` line of README's ``sh`` blocks, its ``\\``
continuations joined, must parse with ``cli.build_parser()``: a flag that
the CLI no longer takes fails here rather than in a reader's shell.
"""

import re
import shlex
from pathlib import Path

from blockcast import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """The ``blockcast`` command lines of README's ``sh`` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("blockcast ")]


def test_every_readme_command_parses(capsys):
    commands = readme_commands()
    assert {shlex.split(line)[1] for line in commands} >= {
        "simulate", "label", "train", "evaluate", "transfer"}
    refused = []
    for line in commands:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            refused.append((line, capsys.readouterr().err))
    assert not refused
