"""Deterministic SVG figures: orthographic sphere views and planar shapes.

Bodies are drawn looking along the view direction; boundary arcs on the far
hemisphere are dashed.  Each arc is drawn with a share of 96 points
proportional to its sweep (at least 2), so a full circle gets 96.  Output is
byte-identical for identical inputs (sampling fixed by the arcs, fixed %.6f
coordinate formatting, no timestamps).
"""

from __future__ import annotations

import numpy as np

from .body import TWO_PI, SphericalBody
from .sphere import normalize, orthonormal_frame
from .wulff import WulffShape

_SEG_SAMPLES = 96  # samples per full circle; an arc gets its sweep's share, at least 2

_HEADER = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}" '
           'width="512" height="512">\n')
_STYLE = ('<style>\n'
          '.outline{fill:none;stroke:#999;stroke-width:0.006}\n'
          '.boundary{fill:none;stroke:#000;stroke-width:0.01}\n'
          '.boundary-hidden{fill:none;stroke:#000;stroke-width:0.006;'
          'stroke-dasharray:0.03 0.02}\n'
          '.marker{fill:#c00;stroke:none}\n'
          '</style>\n')


def _fmt(x: float) -> str:
    v = 0.0 if abs(x) < 5e-7 else x  # avoid "-0.000000"
    return f"{v:.6f}"


def _path(points_2d, cls: str) -> str:
    cmds = []
    for i, (x, y) in enumerate(points_2d):
        cmds.append(f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(-y)}")
    return f'<path class="{cls}" d="{" ".join(cmds)}"/>\n'


def _runs(mask: np.ndarray):
    """Consecutive index runs of equal mask value, as (value, slice) pairs."""
    edges = np.flatnonzero(np.diff(mask.astype(int))) + 1
    starts = np.concatenate([[0], edges])
    ends = np.concatenate([edges, [len(mask)]])
    return [(bool(mask[s]), slice(s, e)) for s, e in zip(starts, ends)]


def _sphere_svg(body: SphericalBody, view: np.ndarray) -> str:
    w = normalize(np.asarray(view, dtype=float))
    u, v = orthonormal_frame(w)
    out = [_HEADER.format(vb="-1.1 -1.1 2.2 2.2"), _STYLE]
    circle = np.linspace(0.0, TWO_PI, 181)
    out.append(_path(np.column_stack([np.cos(circle), np.sin(circle)]),
                     "outline"))
    arcs = body.arcs
    counts = np.maximum(2, np.ceil(_SEG_SAMPLES * (arcs.sweeps / TWO_PI))).astype(int)
    for i, k in enumerate(counts.tolist()):
        pts = arcs._point(np.full(k, i), np.linspace(0.0, arcs.sweeps[i], k))
        xy = np.column_stack([pts @ u, pts @ v])
        visible = pts @ w >= 0.0
        for vis, sl in _runs(visible):
            if sl.stop - sl.start < 2:
                continue
            out.append(_path(xy[sl], "boundary" if vis else "boundary-hidden"))
    out.append("</svg>\n")
    return "".join(out)


def _shape_svg(shape: WulffShape) -> str:
    span = 1.1 * float(np.max(np.abs(shape.vertices)))
    span = max(span, 1e-6)
    vb = f"{_fmt(-span)} {_fmt(-span)} {_fmt(2 * span)} {_fmt(2 * span)}"
    out = [_HEADER.format(vb=vb), _STYLE]
    closed = np.vstack([shape.vertices, shape.vertices[:1]])
    out.append(_path(closed, "boundary"))
    out.append(f'<circle class="marker" cx="0.000000" cy="0.000000" '
               f'r="{_fmt(span / 60.0)}"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def render_svg(obj, view, path: str) -> None:
    """Write an SVG of a SphericalBody (orthographic along view, hidden arcs
    dashed) or a WulffShape (view ignored, its origin marked)."""
    if isinstance(obj, WulffShape):
        text = _shape_svg(obj)
    elif isinstance(obj, SphericalBody):
        text = _sphere_svg(obj, view)
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
