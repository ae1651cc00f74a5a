"""Flat SVG ribbon rendering of label sequences, one colored band per row.

Self-contained string assembly; no plotting dependency. Colors come from a
deterministic palette over the class count.
"""

from .seqdata import DenseLabels, segments_of


def class_color(index, num_classes):
    """Evenly spaced hues; class 0 (background) is light gray."""
    if index == 0:
        return "#d9d9d9"
    hue = (index - 1) * 360.0 / max(num_classes - 1, 1)
    return f"hsl({hue:.0f},70%,55%)"


def segmentation_ribbon_svg(rows, num_classes):
    """Render named label rows (e.g. truth vs prediction) as color bands.

    ``rows`` is a list of (name, labels), each labels a valid
    ``DenseLabels`` array of ``num_classes``, all of one length. Returns
    the SVG document as a string.
    """
    if not rows:
        raise ValueError("need at least one row")
    t_len = len(rows[0][1])
    width, band_height, gap, label_w = 960, 28, 6, 90  # pixels
    height = len(rows) * (band_height + gap) + gap
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + label_w}"'
        f' height="{height}" font-family="monospace" font-size="11">'
    ]
    for r, (name, labels) in enumerate(rows):
        labels = DenseLabels(labels, num_classes).labels
        if labels.size != t_len:
            raise ValueError("all rows must have the same length")
        y = gap + r * (band_height + gap)
        parts.append(
            f'<text x="2" y="{y + band_height * 0.65:.1f}">{name}</text>'
        )
        for c, start, stop in zip(*segments_of(labels)):
            x0 = label_w + start / t_len * width
            x1 = label_w + stop / t_len * width
            parts.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{x1 - x0:.2f}"'
                f' height="{band_height}" fill="{class_color(c, num_classes)}">'
                f"<title>class {c} [{start},{stop - 1}]</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts)
