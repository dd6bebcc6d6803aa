"""The README's examples run as shown."""
import re
from pathlib import Path

import pytest

from nmrqc import ExperimentSpec, parse_program_text, readout, run_program

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    """The README's fenced code blocks tagged with `language` ('' for none)."""
    return [body for lang, body in re.findall(r"^```(\w*)\n(.*?)^```$", README,
                                              re.MULTILINE | re.DOTALL)
            if lang == language]


def test_readme_examples_run():
    (quick_start,) = _blocks("python")
    namespace = {}
    exec(compile(quick_start, "README.md", "exec"), namespace)
    (a, b), = readout(namespace["amps"][None])
    assert (a, b) == pytest.approx((0.90, 1.00), abs=0.01)

    (spec_text,) = _blocks("json")
    spec = ExperimentSpec.from_json(spec_text)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    (program_text,) = _blocks("")
    program = parse_program_text(program_text)
    assert program.input_spec == "10" and len(program.steps) == 7
    assert readout(run_program(program)[None])[0] == pytest.approx((1.0, 1.0),
                                                                   abs=1e-5)
