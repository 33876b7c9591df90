"""The mutant cases still fit today's src/ and tests/.

    python3 -m pytest -q mutants
"""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from cases import CASES, EQUIVALENT, RETIRED

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("case", CASES + EQUIVALENT, ids=lambda case: case.name)
def test_old_text_occurs_exactly_once_in_src(case):
    assert case.file.startswith("src/")
    assert case.old != case.new
    assert (ROOT / case.file).read_text(encoding="utf-8").count(case.old) == 1


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_every_node_id_names_a_test_function(case):
    assert case.catch
    for node in case.catch:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert f"def {names[-1]}(" in text, node
        assert all(f"class {name}" in text for name in names[:-1]), node


def test_names_are_unique():
    names = [case.name for case in CASES + EQUIVALENT + RETIRED]
    assert len(names) == len(set(names))
