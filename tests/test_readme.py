"""The README's examples run as shown."""
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from nmrqc import EOParams, ExperimentSpec, readout
from nmrqc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    """The README's fenced code blocks tagged with `language` ('' for none)."""
    return [body for lang, body in re.findall(r"^```(\w*)\n(.*?)^```$", README,
                                              re.MULTILINE | re.DOTALL)
            if lang == language]


def test_readme_examples_run(tmp_path, monkeypatch):
    quick_start, custom = _blocks("python")
    namespace = {}
    exec(compile(quick_start, "README.md", "exec"), namespace)
    eo = namespace["eo"]
    assert isinstance(eo, EOParams) and (eo.tau, eo.sf1x) == (8, 0.03125)
    (a, b), = readout(namespace["amps"][None])
    assert (a, b) == pytest.approx((0.90, 1.00), abs=0.01)

    (spec_text,) = _blocks("json")
    spec = ExperimentSpec.from_json(spec_text)
    (write,) = re.findall(r"`(json\.dumps\(dataclasses\..*?\))`", README)
    written = eval(write, {"json": json, "dataclasses": dataclasses, "spec": spec})
    assert ExperimentSpec.from_json(written) == spec

    namespace = {}
    exec(compile(custom, "README.md", "exec"), namespace)
    program = namespace["program"]
    assert program.input_spec == "10" and len(program.steps) == 7
    assert readout(namespace["run_program"](program)[None])[0] == pytest.approx(
        (1.0, 1.0), abs=1e-5)

    # every command line, run where the JSON block is myspec.json; the
    # spec file written from the spec object runs the same table
    monkeypatch.chdir(tmp_path)
    (tmp_path / "myspec.json").write_text(spec_text, encoding="utf-8")
    (tmp_path / "written.json").write_text(written, encoding="utf-8")
    commands = [shlex.split(line, comments=True)
                for block in _blocks("bash") for line in block.splitlines()]
    commands = [argv[1:] if argv[0] == "nmrqc" else argv[3:] for argv in commands
                if argv[:1] == ["nmrqc"] or argv[:3] == ["python", "-m", "nmrqc"]]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
    assert (tmp_path / "grover.csv").read_text(encoding="utf-8").startswith(
        "Item position,a,b,")
    for name in ("myspec", "written"):
        assert main(["run", f"{name}.json", "--format", "json", "--out", f"{name}.out"]) == 0
    assert (tmp_path / "written.out").read_bytes() == (tmp_path / "myspec.out").read_bytes()
