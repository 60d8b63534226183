import xml.etree.ElementTree as ET

import pytest

from zopt.svgplot import _decades, write_log_log_chart

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def test_chart_contains_curves_and_labels(tmp_path):
    path = tmp_path / "chart.svg"
    xs = [1, 10, 100, 1000]
    write_log_log_chart(
        path,
        [("alpha", xs, [100.0, 10.0, 1.0, 0.1]), ("beta", xs, [5.0, 5.0, 5.0, 5.0])],
        title="demo",
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "alpha" in text and "beta" in text
    assert "1e2" in text  # decade tick label


def test_nonpositive_points_are_dropped(tmp_path):
    path = tmp_path / "chart.svg"
    write_log_log_chart(path, [("a", [0, 1, 2], [0.0, 1.0, 2.0])], title="t")
    assert path.read_text().count("<polyline") == 1


def test_all_nonpositive_rejected(tmp_path):
    with pytest.raises(ValueError, match="no positive"):
        write_log_log_chart(tmp_path / "x.svg", [("a", [0], [0.0])], title="t")


def test_markup_characters_are_escaped(tmp_path):
    # the title and curve labels used to be written raw, which made the file
    # malformed; the axis labels are fixed text
    path = tmp_path / "chart.svg"
    write_log_log_chart(
        path,
        [("f<x> & co", [1, 10], [1.0, 2.0]), ("k > 0", [1, 10], [3.0, 4.0])],
        title="a<b & c",
    )
    texts = [el.text for el in ET.parse(path).getroot().iter(SVG_TEXT)]
    assert {"a<b & c", "f<x> & co", "k > 0", "iteration (log)", "value (log)"} <= set(texts)


@pytest.mark.parametrize(
    "xs, ys, x_ticks, y_ticks",
    [
        # ends on decades: log ranges [0, 3] and [-2, 2] padded by 3 % and 6 %
        (
            [1, 1000], [0.01, 100.0],
            ["1e0", "1e1", "1e2", "1e3"], ["1e-2", "1e-1", "1e0", "1e1", "1e2"],
        ),
        # ends between decades: [0.301, 2.699] and [-0.523, 1.602] padded
        ([2, 500], [0.3, 40.0], ["1e1", "1e2"], ["1e0", "1e1"]),
    ],
    ids=["ends-on-decades", "ends-between-decades"],
)
def test_tick_labels_are_the_decades_inside_the_padded_range(tmp_path, xs, ys, x_ticks, y_ticks):
    path = tmp_path / "chart.svg"
    write_log_log_chart(path, [("a", xs, ys)], title="t")
    ticks = [el for el in ET.parse(path).getroot().iter(SVG_TEXT) if el.text.startswith("1e")]
    assert [el.text for el in ticks if el.get("text-anchor") == "middle"] == x_ticks
    assert [el.text for el in ticks if el.get("text-anchor") == "end"] == y_ticks


@pytest.mark.parametrize(
    "lo, hi", [(0.0, 3.0), (-0.09, 3.09), (0.2, 0.8), (-2.5, -0.5), (-1.0, -1.0), (1e-12, 2.0)]
)
def test_decades_are_the_integers_in_the_closed_range(lo, hi):
    assert list(_decades(lo, hi)) == [d for d in range(-5, 6) if lo <= d <= hi]
