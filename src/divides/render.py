"""SVG pictures of chord arrangements.

Only chord sets carry geometry; abstract maps are rejected upstream.
Regions are the complement components avoiding the boundary circle; for
chords they are convex polygons whose corners are crossing points, so the
face walks of the map give the polygons directly.
"""

from __future__ import annotations

from .divide_map import compute_faces
from .generators import ChordSet, from_chords

_SIZE = 500
_R = 230
_CENTER = _SIZE / 2
_FILL = {-1: "#9ecae1", 1: "#fdae6b"}      # minus: blue, plus: orange


def _xy(p) -> tuple[float, float]:
    # x / w is the correctly rounded float of the exact coordinate
    return (_CENTER + _R * (p[0] / p[2]), _CENTER - _R * (p[1] / p[2]))


def render_chords_svg(cs: ChordSet) -> str:
    arr = cs.arrangement
    m = from_chords(cs)
    faces = compute_faces(m)
    first = len(m.endpoints)        # crossing k is map vertex first + k

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'  <circle cx="{_CENTER}" cy="{_CENTER}" r="{_R}" fill="none" '
        'stroke="#444444" stroke-width="1.5"/>',
    ]

    for fi in faces.regions:
        pts = []
        for d in m.face_walks[fi]:
            x, y = _xy(arr.points[m.dart_vertex[d] - first])
            pts.append(f"{x:.2f},{y:.2f}")
        out.append(f'  <polygon points="{" ".join(pts)}" '
                   f'fill="{_FILL[faces.signs[fi]]}" fill-opacity="0.6" '
                   'stroke="none"/>')

    for p, q in arr.ends:
        x1, y1 = _xy(p)
        x2, y2 = _xy(q)
        out.append(f'  <line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                   f'y2="{y2:.2f}" stroke="#222222" stroke-width="2"/>')

    for p in arr.points:
        x, y = _xy(p)
        out.append(f'  <circle cx="{x:.2f}" cy="{y:.2f}" r="4" '
                   'fill="#d62728"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
