"""The README stays true: its library example runs, its export list is
the package's public API, and its config key list is the schema's."""

import dataclasses
import re
from pathlib import Path

import ddchain
from ddchain.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    exec(compile(block, str(README), "exec"), {})


def test_readme_export_list_is_all():
    bullets = library_section().split("exports exactly:", 1)[1].strip().split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", bullets) == ddchain.__all__


def test_readme_key_list_is_the_schema():
    text = README.read_text(encoding="utf-8")
    (keys,) = re.findall(r"Keys:\n`([^`]+)`", text)
    assert keys.split() == [field.name for field in dataclasses.fields(RunConfig)]
