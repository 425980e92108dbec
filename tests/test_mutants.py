"""The mutation smoke's entries still name the code: each old text occurs exactly once (``tools/mutants.py``)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import mutants  # noqa: E402


def test_every_mutant_text_occurs_exactly_once():
    assert mutants.check() == []
    assert len({name for name, *_ in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 12
    for _, path, old, new, tests in mutants.MUTANTS:
        assert old != new and (mutants.ROOT / tests).is_file(), (path, old)
