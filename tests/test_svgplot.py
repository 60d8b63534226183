import xml.etree.ElementTree as ET

import pytest

from zopt.svgplot import write_log_log_chart


def test_chart_contains_curves_and_labels(tmp_path):
    path = tmp_path / "chart.svg"
    xs = [1, 10, 100, 1000]
    write_log_log_chart(
        path,
        [("alpha", xs, [100.0, 10.0, 1.0, 0.1]), ("beta", xs, [5.0, 5.0, 5.0, 5.0])],
        title="demo",
        x_label="iteration",
        y_label="value",
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
    # title and labels used to be written raw, which made the file malformed
    path = tmp_path / "chart.svg"
    write_log_log_chart(
        path,
        [("f<x> & co", [1, 10], [1.0, 2.0])],
        title="a<b",
        x_label="k > 0",
        y_label="f & g",
    )
    texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert {"a<b", "f<x> & co", "k > 0 (log)", "f & g (log)"} <= set(texts)
