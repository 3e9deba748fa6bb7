"""Self-contained SVG heatmap emission (rect grid, no external renderer)."""

from __future__ import annotations

import numpy as np

from .fileio import _grid, _output

# coarse viridis anchors, interpolated linearly
_ANCHORS = np.array(
    [(68, 1, 84), (71, 44, 122), (59, 81, 139), (44, 113, 142), (33, 144, 141),
     (39, 173, 129), (92, 200, 99), (170, 220, 50), (253, 231, 37)]
)


def _escape(text: str) -> str:
    """text with &, < and > escaped, for an SVG text element."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def heatmap_svg(path, x, y, z, xlabel: str, ylabel: str, title: str = "") -> None:
    """Write a filled-cell heatmap of z[j, i] over (x[i], y[j]).

    The y axis increases upward.  Cell colors span the data range, which
    must be finite.
    """
    x, y, z = _grid(x, y, z)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    xlabel, ylabel, title = (_escape(label) for label in (xlabel, ylabel, title))
    margin, plot = 60, 480
    width, height = plot + 2 * margin, plot + 2 * margin
    zmin, zmax = float(z.min()), float(z.max())
    span = (zmax - zmin) or 1.0
    cw, ch = plot / len(x), plot / len(y)

    # cell colors between two anchors, rounded half to even like Python's round
    pos = np.clip((z - zmin) / span, 0.0, 1.0) * (len(_ANCHORS) - 1)
    k = np.minimum(pos.astype(int), len(_ANCHORS) - 2)
    lo, hi = _ANCHORS[k], _ANCHORS[k + 1]
    rgb = np.round(lo + (pos - k)[..., None] * (hi - lo)).astype(int)
    # one format string per row of cells; the trailing "" ends its last cell
    x_attrs = [*(f'<rect x="{margin + i * cw:.2f}" y="' for i in range(len(x))), ""]
    size = f'" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="rgb(%d,%d,%d)"/>'
    axis_font = 'font-family="sans-serif" font-size="13"'
    axes = [
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{margin}" y="{margin + plot + 18}" {axis_font}>{x[0]:g}</text>',
        f'<text x="{margin + plot}" y="{margin + plot + 18}" {axis_font} '
        f'text-anchor="end">{x[-1]:g}</text>',
        f'<text x="{margin - 6}" y="{margin + plot}" {axis_font} '
        f'text-anchor="end">{y[0]:g}</text>',
        f'<text x="{margin - 6}" y="{margin + 12}" {axis_font} text-anchor="end">{y[-1]:g}</text>',
        f'<text x="{margin + plot / 2}" y="{margin + plot + 40}" {axis_font} '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="18" y="{margin + plot / 2}" {axis_font} text-anchor="middle" '
        f'transform="rotate(-90 18 {margin + plot / 2})">{ylabel}</text>',
    ]
    if title:
        axes.append(f'<text x="{width / 2}" y="{margin - 14}" {axis_font} text-anchor="middle">{title}</text>')
    # written a row at a time, so no string of the whole file is held
    with _output(path) as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n<rect width="{width}" height="{height}" fill="white"/>\n'
        )
        for j, channels in enumerate(rgb.reshape(len(y), -1).tolist()):
            cell_end = f"{margin + plot - (j + 1) * ch:.2f}{size}\n"
            f.write(cell_end.join(x_attrs) % tuple(channels))
        f.write("\n".join([*axes, "</svg>\n"]))
