"""The README's library example runs as written and prints its verdict, its
CLI commands parse, and its model-file format names the fields a save writes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import sentinel
from sentinel.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_model_file_bullet_names_the_saved_fields(tmp_path):
    bullet = re.search(r"\* \*\*Learned model JSON\*\*: `\{(.*?)\}`",
                       README.read_text(encoding="utf-8"), re.DOTALL)
    assert main(["demo", "injection", "--seed", "7", "--out", str(tmp_path)]) == 0
    saved = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    assert sorted(re.findall(r'"(\w+)"', bullet.group(1))) == sorted(saved)


def test_cli_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("sentinel ")]
    assert len(commands) >= 9
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error raises SystemExit
