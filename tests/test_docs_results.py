"""EXPERIMENTS.md quotes the committed benchmark results, not stale ones.

The Fig. 11 paragraph and the Table 4 "Model" column are prose over
``benchmarks/results/fig11_storage_sweep.txt`` and
``benchmarks/results/table4_ablations.txt``; these tests parse both
sides, so a regenerated results file that moves a quoted number fails
here until the prose is rewritten.
"""

import math
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "results"
DEEP = ("resnet20", "logreg", "lstm", "packed_bootstrap")


def _section(title: str) -> str:
    text = (REPO / "EXPERIMENTS.md").read_text()
    start = text.index(f"## {title}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def _table(name: str) -> tuple[list[str], dict[str, list[str]]]:
    """A results table's column headers and cells per benchmark row."""
    lines = (RESULTS / name).read_text().splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    header = re.split(r"\s{2,}", lines[rule - 1].strip())[1:]
    rows = {}
    for line in lines[rule + 1:]:
        if line.strip():
            cells = re.split(r"\s{2,}", line.strip())
            rows[cells[0]] = cells[1:]
    return header, rows


def test_fig11_paragraph_quotes_the_storage_sweep():
    sizes, rows = _table("fig11_storage_sweep.txt")
    text = " ".join(_section("Fig. 11").split())
    at_100 = {name: float(rows[name][sizes.index("100 MB")])
              for name in DEEP}
    quoted = {name: float(x)
              for x, name in re.findall(r"(\d\.\d\d)x \((\w+)\)", text)}
    assert quoted == at_100
    loss = float(re.search(r"a loss of up to (\d+\.\d)x", text).group(1))
    assert loss == round(1 / min(at_100.values()), 1)
    assert "From 150 MB to 350 MB every benchmark reads 1.00x" in text
    for cells in rows.values():
        assert cells[sizes.index("150 MB"):] \
            == ["1.00"] * (len(sizes) - sizes.index("150 MB"))
    assert "lola_mnist_uw reads 1.00x at every size" in text
    assert rows["lola_mnist_uw"] == ["1.00"] * len(sizes)


@pytest.mark.parametrize("row,column", [
    ("without KSHGen", "no KSHGen"),
    ("without CRB + chaining", "no CRB/chain"),
    ("F1-style crossbar network", "crossbar net"),
])
def test_table4_model_column_is_the_deep_gmean(row, column):
    """The quoted deep gmean lies within the results table's rounding:
    each cell stands for any value within 0.05 of it."""
    header, rows = _table("table4_ablations.txt")
    cells = [float(rows[name][header.index(column)]) for name in DEEP]
    match = re.search(rf"\| {re.escape(row)} \| [\d.]+x \| ([\d.]+)x \|",
                      _section("Table 4"))
    model = float(match.group(1))

    def gmean(values):
        return math.exp(sum(map(math.log, values)) / len(values))

    low = gmean([c - 0.05 for c in cells])
    high = gmean([c + 0.05 for c in cells])
    assert low - 0.05 <= model <= high + 0.05, (model, low, high)
