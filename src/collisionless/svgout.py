"""Minimal hand-rolled SVG line plots (keeps exports dependency-free)."""

from __future__ import annotations

import numpy as np

__all__ = ["SvgCanvas"]


class SvgCanvas:
    """Fixed-size SVG canvas mapping a data rectangle onto a plot area."""

    width, height, margin = 640, 480, 48

    def __init__(self, x_range, y_range, title=""):
        self.x0, self.x1 = float(x_range[0]), float(x_range[1])
        self.y0, self.y1 = float(y_range[0]), float(y_range[1])
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.title = title
        self._body: list[str] = []

    def _px(self, x):
        frac = (x - self.x0) / (self.x1 - self.x0)
        return self.margin + frac * (self.width - 2 * self.margin)

    def _py(self, y):
        frac = (y - self.y0) / (self.y1 - self.y0)
        return self.height - self.margin - frac * (self.height - 2 * self.margin)

    def polyline(self, xs, ys, color="#000", width=1.2, dash=None):
        pts = " ".join(
            f"{self._px(x):.2f},{self._py(y):.2f}"
            for x, y in zip(np.asarray(xs, float), np.asarray(ys, float))
            if np.isfinite(x) and np.isfinite(y)
        )
        if not pts:
            return
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{dash_attr} points="{pts}"/>'
        )

    def circle(self, x, y, color="#d22"):
        self._body.append(
            f'<circle cx="{self._px(x):.2f}" cy="{self._py(y):.2f}" r="3.5" '
            f'stroke="{color}" fill="none" stroke-width="1.4"/>'
        )

    def cross(self, x, y, size=4.0, color="#222"):
        cx, cy = self._px(x), self._py(y)
        self._body.append(
            f'<path d="M {cx - size:.2f} {cy - size:.2f} L {cx + size:.2f} {cy + size:.2f} '
            f'M {cx - size:.2f} {cy + size:.2f} L {cx + size:.2f} {cy - size:.2f}" '
            f'stroke="{color}" stroke-width="1.4"/>'
        )

    def vline(self, x, color="#999", width=1.0, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._body.append(
            f'<line x1="{self._px(x):.2f}" y1="{self.margin}" x2="{self._px(x):.2f}" '
            f'y2="{self.height - self.margin}"{dash_attr} stroke="{color}" stroke-width="{width}"/>'
        )

    def _frame(self):
        m, w, h = self.margin, self.width, self.height
        parts = [
            f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
            'fill="none" stroke="#444" stroke-width="1"/>'
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = self.x0 + frac * (self.x1 - self.x0)
            yv = self.y0 + frac * (self.y1 - self.y0)
            parts.append(
                f'<text x="{self._px(xv):.2f}" y="{h - m + 16}" font-size="10" fill="#444" '
                f'text-anchor="middle" font-family="sans-serif">{xv:.3g}</text>'
            )
            parts.append(
                f'<text x="{m - 6}" y="{self._py(yv) + 3:.2f}" font-size="10" fill="#444" '
                f'text-anchor="end" font-family="sans-serif">{yv:.3g}</text>'
            )
        if self.title:
            parts.append(
                f'<text x="{w / 2}" y="{m - 10}" font-size="13" fill="#222" '
                f'text-anchor="middle" font-family="sans-serif">{self.title}</text>'
            )
        return parts

    def tostring(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        bg = f'<rect width="{self.width}" height="{self.height}" fill="#fff"/>'
        return "\n".join([head, bg, *self._frame(), *self._body, "</svg>"])

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.tostring())
