"""The README's examples run as written."""

import ast
import re
import shlex
import warnings
from pathlib import Path

import pytest

from bnmc.cli import main

ROOT = Path(__file__).resolve().parents[1]


def readme_block(section: str, language: str) -> str:
    """The first fenced `language` block under the README heading `section`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_readme_cli_block_exits_0(tmp_path, monkeypatch, capsys):
    block = readme_block("CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line and not line.startswith("#")]
    assert [c[0] for c in commands] == ["bnmc"] * len(commands)
    # Outputs go to the temporary directory; inputs are read from the checkout.
    monkeypatch.chdir(tmp_path)
    for command in commands:
        args = [str(ROOT / a) if a.startswith("src/") else a for a in command[1:]]
        assert main(args) == 0, (command, capsys.readouterr().err)
    assert (tmp_path / "chain.jani").stat().st_size > 0
    assert (tmp_path / "out.csv").read_text(encoding="utf-8").count("\n") == 4


def test_readme_library_sketch_answers_0_27_four_ways(monkeypatch):
    # The sketch reads its network by a path relative to the checkout.
    monkeypatch.chdir(ROOT)
    namespace, answers = {}, []
    # A file the sketch leaves open warns when it is freed.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for statement in ast.parse(readme_block("Library sketch", "python")).body:
            if isinstance(statement, ast.Expr):
                answers.append(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
            else:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert answers == [pytest.approx(0.27, abs=1e-12)] * 4
