"""SVG line charts."""
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

from gossiplab.svgplot import line_chart, save_chart


def polyline_points(svg):
    (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
    return [tuple(map(float, p.split(","))) for p in points.split()]


def test_line_chart_draws_only_finite_points():
    inf, nan = math.inf, math.nan
    cases = (
        # xs, ys, the points kept with log_y and without
        ([0, 1, 2, 3, 4, 5, inf, 7],
         [1.0, 0.5, inf, nan, 0.25, 0.0, 0.1, 0.125],
         [0, 1, 4, 7], [0, 1, 4, 5, 7]),
        ([-2, -1, 0, 1, 2, 3, nan, 5, 6],
         [-1.0, 3.0, 0.0, -0.0, 2e-300, -inf, 1.0, 7.5, nan],
         [1, 4, 7], [0, 1, 2, 3, 4, 7]),
    )
    for xs, ys, kept_log, kept_linear in cases:
        for log_y, kept in ((True, kept_log), (False, kept_linear)):
            svg = line_chart([("r", xs, ys)], log_y=log_y)
            assert not re.search(r"nan|inf", svg)
            assert line_chart([("r", np.array(xs), np.array(ys))],
                              log_y=log_y) == svg
            clean = line_chart([("r", [xs[i] for i in kept],
                                 [ys[i] for i in kept])], log_y=log_y)
            assert svg == clean
            assert len(polyline_points(svg)) == len(kept)
    # one drawn value too large for +1.0 to widen its range, as y and as
    # x, and the largest doubles: every coordinate stays finite
    big = 1.7976931348623157e308
    for xs, ys in (([0, 1], [1e300, 1e300]), ([1e300, 1e300], [0, 1]),
                   ([-big, -big], [big, big]), ([2.0 ** 53] * 2, [5, 5])):
        svg = line_chart([("r", xs, ys)])
        assert not re.search(r"nan|inf", svg)
        points = polyline_points(svg)
        coords = [float(v) for v in re.findall(r' [xy][12]?="([^"]*)"', svg)]
        assert all(map(math.isfinite, coords + [v for p in points for v in p]))
        assert len(points) == 2


def test_saved_header_lines_are_well_formed_comments(tmp_path):
    # "--" may not occur in an XML comment, nor may one end in "-"
    path = tmp_path / "chart.svg"
    lines = ["out=run--a", "a---b", "ends-"]
    save_chart(path, [("r", [0, 1], [1.0, 0.5])], lines)
    root = ET.parse(path).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    head = path.read_text().splitlines()[:len(lines)]
    assert [h.replace(" ", "") for h in head] == \
        [f"<!--{ln}-->" for ln in lines]
