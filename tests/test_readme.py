"""The README's numbers against the library and the tests that pin them."""

import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

from satedge.cli import main
from satedge.constructions import h1, turan_number
from satedge.saturation import count_saturating
from satedge.search import min_saturating_at_jump
from test_search import JUMP_SEEDS, deepening_store, unpruned_pass

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


def readme_text():
    return README.read_text(encoding="utf-8")


def fenced_blocks(language):
    """The bodies of the README's fenced code blocks in one language."""
    return re.findall(rf"^```{language}\n(.*?)^```", readme_text(), re.M | re.S)


def test_quick_tour_runs():
    # its asserts hold 246, 60 602 515 293, the density 2/33 and the
    # (114, 132) split to the library
    (tour,) = fenced_blocks("python")
    exec(compile(tour, "README.md quick tour", "exec"), {})


def shown_results():
    """(command, shown output) for every README shell line followed by a
    `# =>` line."""
    for block in fenced_blocks("sh"):
        lines = block.splitlines()
        for line, shown in zip(lines, lines[1:]):
            if shown.startswith("# => "):
                yield line, shown[len("# => "):]


def run_pipeline(capsys, monkeypatch, command):
    """Run `satedge ... | satedge ...` through cli.main, each stage's
    stdout fed to the next stage's stdin; the last stage's stdout."""
    out = ""
    for stage in command.split("|"):
        program, *argv = shlex.split(stage)
        assert program == "satedge", stage
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        assert main(argv) == 0, stage
        out = capsys.readouterr().out
    return out


def test_cli_examples_print_their_shown_results(capsys, monkeypatch):
    examples = list(shown_results())
    assert [command for command, _ in examples] == [
        "satedge construct h1 --p 3 --x 1 --y 0 | satedge count --p 4"
    ]
    for command, shown in examples:
        assert run_pipeline(capsys, monkeypatch, command).strip() == shown, command


def number(text):
    """An int written with a space between digit groups, as the README
    writes them."""
    return int(text.replace(" ", ""))


def test_inline_counts_match_the_library(monkeypatch):
    # the spec count past the vertex cap, and the n = 10 jump's candidates:
    # explored by the search, generated by one unpruned pass, and labelled
    text = " ".join(readme_text().split())
    group = r"(\d{1,3}(?: \d{3})*)"
    spec = re.search(rf"`count_saturating\(h1\((\d+), (\d+), (\d+)\)\.spec, (\d+)\)` gives {group}", text)
    p, x, y, q = map(int, spec.groups()[:4])
    assert count_saturating(h1(p, x, y).spec, q).total == number(spec.group(5))
    jump = re.search(
        rf"charged to `--budget` \({group} for the `n = 10` jump, where one unpruned pass over every class generates {group}\)",
        text,
    )
    labelled = re.search(rf"So {group} of the {group} are labelled", text)
    (row,), store = deepening_store(monkeypatch, lambda: [min_saturating_at_jump(10, 3)])
    assert row.explored == number(jump.group(1)) == number(labelled.group(2))
    assert store.labelled == number(labelled.group(1))
    e = turan_number(10, 3) + 1
    levels, _ = unpruned_pass(10, 4, e, e)
    assert levels.spent == number(jump.group(2))
