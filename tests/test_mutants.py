"""``tools/mutants.py``'s patches still name code that exists.

A refactor that rewrites a mutated line without updating its mutant fails
here, in tier-1, instead of in a mutant run.  No mutant is run.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "mutants.py")
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_patch_applies_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert mutants.occurrences(mutant) == 1
