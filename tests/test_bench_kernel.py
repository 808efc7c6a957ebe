"""tools/bench_kernel.py's one timing loop, run on stub rows that do no
curve work: the pairing order and what each row prints."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench_kernel.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("tools_bench_kernel", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Booked:
    """An OpCounter stand-in that books fixed counts."""

    def __init__(self, adds, doubles, inversions):
        self.inner_adds, self.inner_doubles, self.inversions = adds, doubles, inversions

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def side(tag, figures, counts, calls):
    """A package stand-in and two rows that log (tag, row) per call and
    return their next figure in seconds, as a fresh-import row returns
    its child's; the first figure goes to the warm-up."""
    def row(name):
        left = iter(figures)

        def run():
            calls.append((tag, name))
            return next(left)
        return run
    pkg = SimpleNamespace(OpCounter=lambda: Booked(*counts))
    return pkg, {name: row(name) for name in ("first", "second")}


def test_one_package_times_every_row(capsys):
    bench = load_bench()
    calls = []
    bench.bench([side("A", [9.0, 0.001, 0.002, 0.003, 0.004], (7, 3, 1), calls)], repeat=4)
    assert calls == [("A", "first")] * 5 + [("A", "second")] * 5
    head, *lines = capsys.readouterr().out.splitlines()
    assert "median" in head and "q1" in head and "(4 rounds)" in head
    # median and quartiles (exclusive method) of 1, 2, 3 and 4 ms
    assert [line.split() for line in lines] == [
        [name, "ms", "2.500", "1.250", "3.750", "7/3", "1"] for name in ("first", "second")]


def test_two_packages_alternate_and_print_the_ratio(capsys):
    bench = load_bench()
    calls = []
    a = side("A", [9.0, 0.001, 0.002, 0.003, 0.004], (7, 3, 1), calls)
    b = side("B", [9.0] + [0.002] * 4, (5, 2, 0), calls)
    bench.bench([a, b], repeat=4)
    # the warm-ups, then round i runs A first when i is even
    order = ["A", "B", "A", "B", "B", "A", "A", "B", "B", "A"]
    assert calls == [(tag, "first") for tag in order] + [(tag, "second") for tag in order]
    head, *lines = capsys.readouterr().out.splitlines()
    assert "A median" in head and "B q3" in head and "B/A" in head and "B won" in head
    # B/A per round: 2, 1, 2/3 and 1/2; B read less in the last two, a tie
    # counting for neither
    assert [line.split() for line in lines] == [
        [name, "ms", "2.500", "1.250", "3.750", "7/3", "1",
         "2.000", "2.000", "2.000", "5/2", "0", "0.833", "2"] for name in ("first", "second")]
