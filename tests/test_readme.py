"""The README's command-line block runs as written, in order, in a fresh cwd."""

import json
import re
import shlex
from pathlib import Path

from uqim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """argv lists of the ``uqim`` lines in the README's ``sh`` blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in re.sub(r"\\\n", " ", block).splitlines():
            if line.startswith("uqim "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    # each also echoes the same settings as its --dry-run: the resolved options
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands and commands[0][0] == "synth"
    for argv in commands:
        settings = []
        for extra in ([], ["--dry-run"]):
            assert main(argv + extra) == 0, (argv + extra, capsys.readouterr().err)
            settings.append(json.loads(capsys.readouterr().out)["settings"])
        real, dry = settings
        assert (real.pop("dry_run"), dry.pop("dry_run")) == (False, True)
        assert real == dry, argv

