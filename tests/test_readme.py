"""The README's library example runs as written and prints its verdict, its
CLI commands parse, its model-file format names the fields a save writes,
and every name its prose puts in backticks exists."""

import builtins
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sentinel
from sentinel.cli import build_parser, main
from sentinel.ddmodel import load_learned_model

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_injection")
    assert main(["demo", "injection", "--seed", "7", "--out", str(out)]) == 0
    return out


def prose_code_spans():
    """The README's inline code spans, its fenced blocks left out."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    return re.findall(r"`([^`]+)`", prose)


def dotted_names(prefix):
    """Every name after `prefix.` in an inline code span, skipping a prefix
    that is itself part of a dotted name or a path (`sentinel.cli`, `x/cli.py`)."""
    return {name for span in prose_code_spans()
            for name in re.findall(rf"(?<![\w./:]){prefix}\.(\w+)", span)}


def test_library_example_prints_the_attack_free_sensors():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    # the package this suite imports, wherever it lives, comes first on the path
    paths = [str(Path(sentinel.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                            env=env, timeout=300, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "attack-free sensors: (1, 2)\n"


def test_model_file_bullet_names_the_saved_fields(demo_dir):
    bullet = re.search(r"\* \*\*Learned model JSON\*\*: `\{(.*?)\}`",
                       README.read_text(encoding="utf-8"), re.DOTALL)
    saved = json.loads((demo_dir / "model.json").read_text(encoding="utf-8"))
    assert sorted(re.findall(r'"(\w+)"', bullet.group(1))) == sorted(saved)


def test_model_attributes_exist(demo_dir):
    model = load_learned_model(demo_dir / "model.json")
    names = dotted_names("model")
    assert "basis" in names
    assert sorted(name for name in names if not hasattr(model, name)) == []


def test_module_names_resolve():
    modules = [info.name for info in pkgutil.iter_modules(sentinel.__path__)]
    named = {(module, name) for module in modules for name in dotted_names(module)}
    assert ("datamat", "BLOCK_BYTES") in named and ("linalg", "rank_cutoff") in named
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(getattr(sentinel, module), name)]
    assert missing == []


def test_camel_case_names_exist():
    # a pytest node id (`TestIdentifyReplay::test_...`) names a test, not an export
    names = {name for span in prose_code_spans()
             for name in re.findall(r"(?<![\w./:])([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]+)+)(?![\w:])",
                                    span)}
    assert {"DataDrivenModel", "ValueError"} <= names
    assert sorted(name for name in names
                  if not hasattr(builtins, name) and name not in sentinel.__dict__) == []


def test_cli_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("sentinel ")]
    assert len(commands) >= 9
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error raises SystemExit
