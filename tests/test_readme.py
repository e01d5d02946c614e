"""The README's code blocks: the quick start runs, every name it imports
from the package is public, and each `chorddiv eval` example prints the
value its `# ->` line promises."""

import ast
import pathlib
import re
import shlex

import pytest

import chorddiv
from chorddiv.cli import main

README = (pathlib.Path(__file__).resolve().parents[1]
          / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
EVAL_EXAMPLES = re.findall(r"^chorddiv (eval .*)\n# -> (.*)$", README, re.M)


def imports():
    """Every `from chorddiv... import` statement of the Python blocks."""
    return [node for block in BLOCKS for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "chorddiv"]


def test_quick_start_runs():
    section = README.split("## Library quick start\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README quick start", "exec"), {})


def test_package_imports_name_only_public_api():
    names = {alias.name for node in imports() if node.module == "chorddiv"
             for alias in node.names}
    assert names
    assert sorted(names - set(chorddiv.__all__)) == []


def test_module_imports_resolve():
    for node in imports():
        exec(compile(ast.Module([node], []), "README import", "exec"), {})


def test_eval_examples_are_found():
    assert len(EVAL_EXAMPLES) == 2


@pytest.mark.parametrize("command, printed", EVAL_EXAMPLES)
def test_eval_example_prints_its_value(command, printed, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == printed + "\n"
