"""Table rendering: markdown/plain grids and byte-stable CSV."""

import pytest

from hyperzeta.anomaly import generate_table
from hyperzeta.output import OutputTable, pform_output, scalar_output


@pytest.fixture(scope="module")
def pform_cells():
    return generate_table("table2")


class TestOutputTable:
    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="row width"):
            OutputTable(headers=("a", "b"), rows=(("only",),))

    def test_format_checked(self):
        with pytest.raises(ValueError, match="format"):
            OutputTable(headers=("a",), rows=(), format="yaml")

    def test_markdown_shape(self):
        table = OutputTable(
            headers=("x", "y"), rows=(("1", ("2/3", "0.6667")),), format="markdown"
        )
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("| x")
        assert set(lines[1]) <= {"|", "-", " "}
        assert "2/3 = 0.6667" in lines[2]

    def test_plain_has_no_pipes(self):
        table = OutputTable(headers=("x",), rows=(("value",),), format="plain")
        assert "|" not in table.render()

    def test_csv_pair_columns_doubled(self):
        table = OutputTable(
            headers=("n", "val"),
            rows=(("2", ("-1/12 * pi^-1", "-0.0265258")), ("4", "excluded")),
            format="csv",
        )
        lines = table.render().splitlines()
        assert lines[0] == "n,val (exact),val (float)"
        assert lines[1] == "2,-1/12 * pi^-1,-0.0265258"
        # non-pair cell in a pair column fills both subcolumns
        assert lines[2] == "4,excluded,excluded"

    # each character that forces quoting alone, all of them, and none
    @pytest.mark.parametrize("text,field", [
        ("x,y", '"x,y"'),
        ('x"y', '"x""y"'),
        ("x\ny", '"x\ny"'),
        ('x,"y"', '"x,""y"""'),
        ("x y", "x y"),
    ])
    def test_csv_escaping(self, text, field):
        table = OutputTable(headers=("a",), rows=((text,),), format="csv")
        assert table.render() == f"a\n{field}\n"

    def test_csv_byte_stable(self, pform_cells):
        a = pform_output(pform_cells, format="csv").render().encode()
        b = pform_output(generate_table("table2"), format="csv").render().encode()
        assert a == b


class TestBuilders:
    def test_pform_grid_shape(self, pform_cells):
        table = pform_output(pform_cells)
        assert table.headers == ("n", "p=0", "p=1", "p=2", "p=3", "p=4")
        assert len(table.rows) == 5
        assert table.rows[0][1] == ("-1/12 * pi^-1", "-0.0265258")
        assert table.rows[0][2] == "excluded"

    def test_scalar_rows(self):
        table = scalar_output(generate_table("table1"))
        assert table.headers == ("n", "anomaly")
        assert len(table.rows) == 7
        assert table.rows[-1][0] == "14"

    def test_digit_control(self, pform_cells):
        table = pform_output(pform_cells, digits=10)
        assert table.rows[0][1][1] == "-0.02652582385"
