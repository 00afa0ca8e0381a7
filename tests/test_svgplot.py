"""SVG line charts."""
import math
import re

from gossiplab.svgplot import line_chart


def polyline_points(svg):
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    return [tuple(map(float, p.split(","))) for p in points.split()]


def test_line_chart_draws_only_finite_points():
    inf, nan = math.inf, math.nan
    xs = [0, 1, 2, 3, 4, 5, inf, 7]
    ys = [1.0, 0.5, inf, nan, 0.25, 0.0, 0.1, 0.125]
    for log_y, kept in ((True, [0, 1, 4, 7]), (False, [0, 1, 4, 5, 7])):
        svg = line_chart([("r", xs, ys)], log_y=log_y)
        assert not re.search(r"nan|inf", svg)
        clean = line_chart([("r", [xs[i] for i in kept],
                             [ys[i] for i in kept])], log_y=log_y)
        assert svg == clean
        assert len(polyline_points(svg)) == len(kept)
