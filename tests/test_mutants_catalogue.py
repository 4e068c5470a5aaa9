"""The mutant catalogue, ``tools/mutants.py``, runs outside this suite;
here every entry must still apply, so that a change which moves a
mutant's old text updates the catalogue in the same change."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_mutant_applies_exactly_once():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    entries = mutants.load([])  # exits 2, naming each stale entry, otherwise
    assert entries and all(entry["tests"] for entry in entries)
