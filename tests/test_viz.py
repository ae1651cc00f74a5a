"""SVG segmentation ribbons."""

import numpy as np
import pytest

from wsseg.viz import segmentation_ribbon_svg


def test_ribbon_has_one_band_per_row_and_segment():
    svg = segmentation_ribbon_svg([("truth", [0, 0, 1, 1]), ("pred", [0, 1, 1, 2])], 3)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<rect") == 5


@pytest.mark.parametrize("rows, message", [
    ([], "need at least one row"),
    ([("truth", np.zeros(4, dtype=np.int64)), ("pred", np.zeros(3, dtype=np.int64))],
     "all rows must have the same length"),
    ([("pred", np.array([0.2, 1.7]))], "labels must be integer indices"),
], ids=["no-rows", "lengths", "float-labels"])
def test_ribbon_refusals(rows, message):
    with pytest.raises(ValueError, match=message):
        segmentation_ribbon_svg(rows, 3)
