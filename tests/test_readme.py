"""The README's library quick tour runs and prints what its comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_prints_the_stated_values(capsys):
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(tour.group(1), {})
    best, tightness, zero = map(float, capsys.readouterr().out.split())
    # class II on A1A2A3: the printed 3/16, here 0.1874999999999999
    assert best == pytest.approx(3.0 / 16.0, rel=1e-12)
    assert 0.0 <= tightness <= 1.0 + 1e-12
    # the GHZ/W mixture at p = 0.5 has zero three-tangle: the returned
    # decomposition realizes rounding of 0, about 1e-16
    assert 0.0 <= zero < 1e-12
