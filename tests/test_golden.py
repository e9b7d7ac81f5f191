"""Golden outputs: every data file of the corpus runs, regenerated, equals its
committed bytes. A change that moves an output rewrites the corpus with
``python3 tests/golden/regenerate.py`` and says which files moved and why."""

from pathlib import Path

from golden.regenerate import generate, moves

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_corpus_is_reproduced_byte_for_byte(tmp_path):
    generate(tmp_path)
    moved = moves(GOLDEN, tmp_path)
    assert not moved, "golden outputs moved:\n" + "\n".join(moved)
