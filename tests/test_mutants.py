"""The mutation table stays appliable: tests/mutants.py runs the mutants themselves."""

import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from tests.mutants import MUTANTS, apply

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_snippet_occurs_once_and_names_a_test(tmp_path):
    # each mutant on a fresh copy of src/, as the runner applies them
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for i, mutant in enumerate(MUTANTS):
        assert mutant.tests
        src = tmp_path / str(i) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        assert mutant.replacement in (src / mutant.file).read_text()


@pytest.mark.parametrize("snippet", ["no such code", "import numpy as np\n\n"])
def test_a_snippet_that_does_not_occur_exactly_once_is_refused(tmp_path, snippet):
    path = tmp_path / "src" / "metok" / "toy_llm.py"
    path.parent.mkdir(parents=True)
    path.write_text("import numpy as np\n\nimport numpy as np\n\n")
    with pytest.raises(ValueError, match="snippet occurs"):
        apply(replace(MUTANTS[0], snippet=snippet), tmp_path / "src")
