import xml.etree.ElementTree as ET

import pytest

from slicesched.svgplot import (HEIGHT, MARGIN_B, MARGIN_R, WIDTH,
                                ChartSpec, Series, render_svg)

SVG = "{http://www.w3.org/2000/svg}"


def _line_spec(**kwargs):
    return ChartSpec(kind="line", series=(
        Series("a", ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0))),
        Series("b", ((0.0, 0.5), (1.0, 0.7), (2.0, 0.9))),
    ), **kwargs)


@pytest.mark.parametrize("spec", [
    _line_spec(title="t", x_label="x", y_label="y"),
    ChartSpec(kind="cdf", series=(Series("c", ((0.01, 0.5), (0.02, 1.0))),),
              v_refs=(0.02,), h_refs=(0.98,)),
    ChartSpec(kind="bar", series=(Series("d", ((0.0, 2.0), (1.0, 5.0))),)),
])
def test_output_is_well_formed_xml(spec):
    root = ET.fromstring(render_svg(spec))
    assert root.tag == f"{SVG}svg"


def test_identical_specs_give_identical_bytes():
    assert render_svg(_line_spec()) == render_svg(_line_spec())


def test_single_point_series_renders_one_marker():
    spec = ChartSpec(kind="line", series=(Series("p", ((1.0, 2.0),)),))
    root = ET.fromstring(render_svg(spec))
    markers = [el for el in root.iter(f"{SVG}circle")
               if el.get("class") == "marker"]
    assert len(markers) == 1


def test_reference_crosshairs_present():
    spec = ChartSpec(kind="cdf",
                     series=(Series("c", ((0.005, 0.4), (0.05, 1.0))),),
                     v_refs=(0.02,), h_refs=(0.98,))
    root = ET.fromstring(render_svg(spec))
    v = [el for el in root.iter(f"{SVG}line") if el.get("class") == "ref-v"]
    h = [el for el in root.iter(f"{SVG}line") if el.get("class") == "ref-h"]
    assert len(v) == 1 and len(h) == 1
    assert v[0].get("stroke-dasharray")
    # vertical reference keeps a constant x across its endpoints
    assert v[0].get("x1") == v[0].get("x2")
    assert h[0].get("y1") == h[0].get("y2")


def test_legend_contains_series_labels():
    doc = render_svg(_line_spec())
    assert ">a</text>" in doc and ">b</text>" in doc


def test_bar_chart_counts_rectangles():
    spec = ChartSpec(kind="bar", series=(
        Series("x", ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0))),
        Series("y", ((0.0, 3.0), (1.0, 2.0), (2.0, 1.0))),
    ))
    root = ET.fromstring(render_svg(spec))
    rects = list(root.iter(f"{SVG}rect"))
    # frame + 6 bars + 2 legend swatches
    assert len(rects) == 1 + 6 + 2


def test_bar_ticks_label_each_group_under_its_bars():
    xs = (0.0, 1.0, 1.5, 2.0, 10.0)      # unevenly spaced group values
    spec = ChartSpec(kind="bar", series=tuple(
        Series(name, tuple((x, float(i + j)) for j, x in enumerate(xs)))
        for i, name in enumerate(("a", "b", "c"))))
    root = ET.fromstring(render_svg(spec))
    bars = [el for el in root.iter(f"{SVG}rect")
            if float(el.get("x")) < WIDTH - MARGIN_R
            and el.get("fill") != "none"]
    assert len(bars) == 3 * len(xs)
    axis_y = str(HEIGHT - MARGIN_B + 18)
    ticks = [el for el in root.iter(f"{SVG}text") if el.get("y") == axis_y]
    assert [el.text for el in ticks] == ["0", "1", "1.5", "2", "10"]
    for group, tick in enumerate(ticks):
        # series-major order: bars group, n + group, 2n + group
        own = bars[group::len(xs)]
        left = min(float(el.get("x")) for el in own)
        right = max(float(el.get("x")) + float(el.get("width")) for el in own)
        assert float(tick.get("x")) == pytest.approx((left + right) / 2,
                                                     abs=1e-3)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ChartSpec(kind="scatter", series=(Series("a", ((0, 0),)),))
    with pytest.raises(ValueError):
        ChartSpec(kind="line", series=())
    with pytest.raises(ValueError):
        ChartSpec(kind="line", series=(Series("a", ()),))
    with pytest.raises(ValueError, match="one point per group"):
        ChartSpec(kind="bar", series=(Series("a", ((0, 1), (1, 2))),
                                      Series("b", ((0, 1),))))


def test_degenerate_range_still_renders():
    spec = ChartSpec(kind="line",
                     series=(Series("flat", ((0.0, 1.0), (1.0, 1.0))),))
    root = ET.fromstring(render_svg(spec))
    assert root.get("width") and root.get("height")
