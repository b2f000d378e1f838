"""Convex bodies on the unit sphere: widths, thickness, diameter,
constant-diameter constructions, polar duality, and the Wulff-shape
self-duality bridge."""

from .body import (Boundary, ExtremeSet, SphericalBody, boundary_sample,
                   distance_to_body, extreme_points, find_enclosing_center,
                   hausdorff_bodies, hull_from_points, polar_dual,
                   polygon_from_vertices, supporting_hemisphere_centers)
from .construct import (OddGonSpec, cap,
                        constant_diameter_odd_gon, constant_diameter_triangle,
                        random_convex_polygon, regular_odd_gon,
                        regular_polygon_vertices, solve_corner_radii)
from .errors import (BadRadius, ConsistencyError, DegenerateArc,
                     DegenerateHull, DegenerateLune, EmptyInterior, EvenN,
                     InconsistentVerdicts, InvalidResolution, InvalidSpec,
                     InvariantViolation, LunesError, NoEnclosingHemisphere,
                     NotInHemisphere, NotSupporting, ParseError,
                     PoleNotInterior)
from .io import (SCHEMA_VERSION, body_from_doc, body_kind, body_to_doc,
                 gamma_from_doc, gamma_to_doc, load_body, load_document,
                 load_gamma, report_from_doc, report_to_doc,
                 save_body, save_gamma, save_report)
from .metrics import (ClassifyReport, DiameterResult, ThicknessResult, Verdict,
                      WidthSample, classify, diameter, is_constant_diameter,
                      is_constant_width, reduced_check, thickness, width_at)
from .render import render_svg
from .sphere import (Hemisphere, Lune, dist, geodesic_point, lune_contains,
                     lune_make, normalize, orthonormal_frame)
from .wulff import (DualityReport, GammaFn, ProjectionFrame, WulffShape,
                    dual_wulff, frame_at, hausdorff_polygons, induce_spherical,
                    is_self_dual, polygon_gamma, project_to_plane,
                    self_dual_equivalence_report, wulff_shape)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
