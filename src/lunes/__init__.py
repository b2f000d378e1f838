"""Convex bodies on the unit sphere: widths, thickness, diameter,
constant-diameter constructions, polar duality, and the Wulff-shape
self-duality bridge.

Each name lives in its own module (`lunes.body`, `lunes.metrics`, ...);
importing the package loads none of them, so a command loads only the
modules it calls."""

__version__ = "0.1.0"
