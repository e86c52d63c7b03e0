"""The README's numbers against the tests that pin them."""

import re
from fractions import Fraction
from pathlib import Path

from test_search import JUMP_SEEDS

README = Path(__file__).resolve().parent.parent / "README.md"
ROW_NAMES = {"jump minimum, p = 3": 3, "jump minimum, p = 4": 4}


def jump_table():
    """The README table whose first header cell is "n", as {row name:
    cells}, the marks "*" and "†" cut off each cell."""
    lines = [line.strip() for line in README.read_text(encoding="utf-8").splitlines()]
    start = next(i for i, line in enumerate(lines) if re.match(r"\|\s*n\s*\|", line))
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        if not line.startswith("|-"):
            name, *cells = (cell.strip() for cell in line.strip("|").split("|"))
            rows[name] = [cell.rstrip(" *†") for cell in cells]
    return rows


def test_jump_table_matches_the_pins():
    # every filled cell is its pin, every empty cell is unpinned, and every
    # pin has a column
    rows = jump_table()
    ns = [int(cell) for cell in rows.pop("n")]
    for name, p in ROW_NAMES.items():
        cells = rows.pop(name)
        pins = JUMP_SEEDS[p][0]
        assert len(cells) == len(ns), name
        for n, cell in zip(ns, cells):
            assert (int(cell) if cell else None) == pins.get(n), (name, n)
        assert set(pins) <= set(ns), name
    bound = rows.pop("2n²/33")
    assert len(bound) == len(ns)
    for n, cell in zip(ns, bound):
        assert re.fullmatch(r"\d+\.\d\d", cell), (n, cell)
        assert Fraction(cell) == round(Fraction(2 * n * n, 33), 2), (n, cell)
    assert not rows, rows
