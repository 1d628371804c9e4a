"""The arithmetic of ``scripts/bench_compare.py``: quartiles, medians and wins."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


@pytest.mark.parametrize("values", [[7.0], [2.0, 1.0], [4.0, 1.0, 3.0, 2.0], [5.0, 1, 4, 2, 3],
                                    [0.3, 0.1, 0.9, 0.5, 0.7, 0.2, 1.1, 0.4, 0.6, 0.8]])
def test_quantiles_match_numpy_linear(values):
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert bench_compare.quantile(values, q) == pytest.approx(np.quantile(values, q), abs=1e-15)


def test_compare_on_a_fixed_list():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 5.0, 4.0]  # win, tie, win, loss, win
    out = bench_compare.compare(base, change, "lower")
    assert out["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "samples": base}
    assert out["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0, "samples": change}
    assert (out["pairs"], out["wins"], out["ties"]) == (5, 3, 1)
    assert out["gap_exceeds_base_iqr"] is False  # 0.5 below, IQR 2

    higher = bench_compare.compare(base, change, "higher")
    assert (higher["wins"], higher["ties"]) == (1, 1)
    assert higher["gap_exceeds_base_iqr"] is False


def test_compare_gap_must_exceed_the_base_iqr():
    base = [10.0, 11.0, 12.0, 13.0]  # q1 10.75, median 11.5, q3 12.25
    out = bench_compare.compare(base, [9.0, 9.5, 10.0, 10.5], "lower")  # median 9.75
    assert out["base"]["median"] == 11.5
    assert out["base"]["q3"] - out["base"]["q1"] == 1.5
    assert out["wins"] == 4 and out["gap_exceeds_base_iqr"] is True
    # a gap of exactly the IQR is not enough, nor is a gap the other way
    assert bench_compare.compare(base, [x - 1.5 for x in base])["gap_exceeds_base_iqr"] is False
    assert bench_compare.compare(base, [x + 5 for x in base])["gap_exceeds_base_iqr"] is False
