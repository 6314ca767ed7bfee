"""The library's line budget."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "meshwave"

# the ceiling ROADMAP item 12 ("Pay for new capability with deletions") sets
CEILING = 3846


def test_the_library_stays_under_the_roadmap_line_ceiling():
    """`wc -l src/meshwave/*.py` is at most ROADMAP item 12's 3,846 lines:
    new capability is paid for with deletions, and a change that takes the
    total past the ceiling fails here instead of in a later review."""
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    assert sum(lines.values()) <= CEILING, lines
