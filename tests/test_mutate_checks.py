"""tools/mutate_checks.py's list of guard mutations stays applicable: each
listed text occurs exactly once in its file, so a change that moves or
rewrites a guard must move its mutation with it."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("tools_mutate_checks",
                                                  ROOT / "tools" / "mutate_checks.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TOOL = load_tool()


@pytest.mark.parametrize("m", TOOL.MUTATIONS, ids=lambda m: m.name)
def test_every_listed_guard_occurs_once(m):
    assert (ROOT / m.file).read_text().count(m.text) == 1
    assert m.text != m.replacement and "\n" not in m.text + m.replacement


def test_names_are_distinct():
    names = [m.name for m in TOOL.MUTATIONS]
    assert len(set(names)) == len(names)


def test_apply_edits_one_line_of_the_copy(tmp_path):
    m = TOOL.MUTATIONS[0]
    original = (ROOT / m.file).read_text()
    copy = tmp_path / m.file
    copy.parent.mkdir(parents=True)
    copy.write_text(original)
    TOOL.apply(tmp_path, m)
    edited = copy.read_text().splitlines()
    changed = [(a, b) for a, b in zip(original.splitlines(), edited) if a != b]
    assert len(edited) == len(original.splitlines()) and len(changed) == 1
    assert changed[0][1] == changed[0][0].replace(m.text, m.replacement)
    with pytest.raises(ValueError, match="occurs 0 times"):
        TOOL.apply(tmp_path, m)
