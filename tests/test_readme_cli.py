"""Every command of the README's CLI block, run through cli.main in README
order: stdout must stay byte for byte what readme_cli.golden records, one
line per command.  The README's library block must run as written."""

import shlex
from pathlib import Path

from oplab.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "readme_cli.golden"


def readme_block(section: str, language: str) -> str:
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    body = readme.split(f"\n## {section}\n", 1)[1]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands():
    block = readme_block("CLI", "sh")
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_cli_stdout_is_unchanged(capsys, monkeypatch, tmp_path):
    # the cache commands get a relative --cache-dir inside a fresh cwd, so
    # the params they echo do not depend on where the test runs
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OPLAB_CACHE_DIR", raising=False)
    outputs = []
    for argv in readme_commands():
        assert argv[0] == "oplab"
        argv = ["oplab-cache" if a == "/tmp/oplab-cache" else a for a in argv[1:]]
        assert main(argv) == 0, argv
        outputs.append(capsys.readouterr().out)
    assert outputs == GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)


def test_readme_library_block_runs():
    # a public name renamed or dropped fails here
    exec(readme_block("Library entry points", "python"), {})
