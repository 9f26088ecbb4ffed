"""SVG chart emission: structure, determinism, validation, pinned bytes."""
import hashlib
import math

import pytest

from embfuse.charts import (
    PALETTE,
    AxesSpec,
    Series,
    emit_svg_linechart,
    history_chart,
    lr_chart,
)
from embfuse.errors import EmptySeriesError, ValidationError
from embfuse.optim import LrProbe, TrainingHistory


def two_series():
    return [
        Series(label="alpha", xs=[1.0, 2.0, 3.0], ys=[1.0, 0.5, 0.25]),
        Series(label="beta", xs=[1.0, 2.0, 3.0], ys=[0.9, 0.6, 0.45]),
    ]


class TestEmitSvg:
    def test_one_polyline_per_series(self):
        svg = emit_svg_linechart(two_series(), AxesSpec(title="t"))
        assert svg.count("<polyline") == 2
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_legend_and_title_present(self):
        svg = emit_svg_linechart(two_series(), AxesSpec(title="Loss curves",
                                                        x_label="epoch", y_label="loss"))
        assert ">alpha</text>" in svg
        assert ">beta</text>" in svg
        assert ">Loss curves</text>" in svg
        assert ">epoch</text>" in svg
        assert ">loss</text>" in svg

    def test_byte_identical_across_calls(self):
        a = emit_svg_linechart(two_series(), AxesSpec(title="t"))
        b = emit_svg_linechart(two_series(), AxesSpec(title="t"))
        assert a == b

    def test_palette_cycles(self):
        many = [Series(label=f"s{i}", xs=[0.0, 1.0], ys=[0.0, float(i)])
                for i in range(len(PALETTE) + 2)]
        svg = emit_svg_linechart(many, AxesSpec())
        assert svg.count(f'stroke="{PALETTE[0]}"') >= 2  # polyline + legend, cycled
        assert svg.count(f'stroke="{PALETTE[1]}"') >= 2

    def test_xml_escaping_in_labels(self):
        series = [Series(label="a<b & \"c\">", xs=[0.0, 1.0], ys=[0.0, 1.0])]
        svg = emit_svg_linechart(series, AxesSpec(title="x < y & z"))
        assert "a&lt;b &amp; &quot;c&quot;&gt;" in svg
        assert "x &lt; y &amp; z" in svg
        assert "a<b" not in svg

    def test_empty_series_list_rejected(self):
        with pytest.raises(EmptySeriesError):
            emit_svg_linechart([], AxesSpec())

    def test_single_point_series_rejected(self):
        with pytest.raises(EmptySeriesError):
            emit_svg_linechart([Series(label="s", xs=[1.0], ys=[1.0])], AxesSpec())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            emit_svg_linechart([Series(label="s", xs=[1.0, 2.0], ys=[1.0])], AxesSpec())

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError):
            emit_svg_linechart(
                [Series(label="s", xs=[1.0, 2.0], ys=[1.0, math.inf])], AxesSpec())
        with pytest.raises(ValidationError):
            emit_svg_linechart(
                [Series(label="s", xs=[math.nan, 2.0], ys=[1.0, 2.0])], AxesSpec())

    def test_log_axis_demands_positive_x(self):
        series = [Series(label="s", xs=[0.0, 1.0], ys=[1.0, 2.0])]
        with pytest.raises(ValidationError):
            emit_svg_linechart(series, AxesSpec(log_x=True))
        ok = [Series(label="s", xs=[1e-8, 1e-2], ys=[1.0, 2.0])]
        assert "<polyline" in emit_svg_linechart(ok, AxesSpec(log_x=True))

    def test_constant_series_still_renders(self):
        series = [Series(label="s", xs=[1.0, 1.0], ys=[2.0, 2.0])]
        svg = emit_svg_linechart(series, AxesSpec())
        assert "<polyline" in svg
        assert "nan" not in svg

    def test_coordinates_fixed_precision(self):
        svg = emit_svg_linechart(two_series(), AxesSpec())
        start = svg.index('<polyline points="') + len('<polyline points="')
        points = svg[start:svg.index('"', start)]
        for pair in points.split(" "):
            x, y = pair.split(",")
            assert len(x.split(".")[1]) == 2
            assert len(y.split(".")[1]) == 2


def history(optimizer, losses):
    return TrainingHistory(pair="p", optimizer=optimizer, learning_rate=0.1, seed=1,
                           train_loss=list(losses),
                           train_accuracy=[0.5] * len(losses),
                           test_loss=list(losses), test_accuracy=[0.5] * len(losses))


class TestHistoryChart:
    def test_one_series_per_run(self):
        svg = history_chart([history("sgd", [1.0, 0.5]), history("adam", [1.0, 0.4])],
                            title="pair a")
        assert svg.count("<polyline") == 2
        assert ">sgd</text>" in svg and ">adam</text>" in svg

    def test_short_runs_skipped(self):
        svg = history_chart([history("sgd", [1.0, 0.5]), history("adam", [1.0])],
                            title="t")
        assert svg.count("<polyline") == 1

    def test_all_short_raises(self):
        with pytest.raises(EmptySeriesError):
            history_chart([history("sgd", [1.0]), history("adam", [])], title="t")


class TestLrChart:
    def test_diverged_probes_excluded(self):
        probes = [LrProbe(1e-4, [1.0, 0.9, 0.8], False),
                  LrProbe(1e-3, [0.9, 0.6, 0.4], False),
                  LrProbe(1e-2, [], True)]
        svg = lr_chart(probes, title="range test")
        assert svg.count("<polyline") == 1
        assert "inf" not in svg

    def test_too_few_surviving_probes(self):
        probes = [LrProbe(1e-4, [1.0], False),
                  LrProbe(1e-2, [], True)]
        with pytest.raises(EmptySeriesError):
            lr_chart(probes, title="t")


# Each chart's SHA-256, so any change to a byte of the markup fails here: the
# charts are findings that reruns must reproduce exactly. Together the cases
# reach every element site: escaped title, labels and legend text, a bare
# AxesSpec, a constant series, a log x axis and a palette that wraps.
PINNED = {
    "history": (
        lambda: history_chart(
            [history("sgd", [1.1, 0.7, 0.45]), history("adagrad", [0.9]),  # left out
             history("adam", [1.0, 0.5, 0.3125])], title="train loss by optimizer: p"),
        "2bb663c8ab0b497b497bfd87d948b0e748aa7c2b147fe37d82557408fd6cd262"),
    "lr": (
        lambda: lr_chart(
            [LrProbe(1e-4, [1.0, 0.9], False), LrProbe(1e-3, [0.9, 0.6], False),
             LrProbe(1e-2, [0.8, 0.3], False), LrProbe(1e-1, [], True)],
            title="adam learning-rate search"),
        "2d211b88cf071437fb57098dceb144ff69a06647d98ddcc5110210686412557c"),
    "escaped": (
        lambda: emit_svg_linechart(
            [Series(label='a<b & "c">', xs=[0.0, 1.0, 2.0], ys=[3.0, 1.5, 0.75])],
            AxesSpec(title="x < y & z", x_label="<epoch>", y_label='"loss" & more')),
        "2704efa2808922acd8ac27757bdf3b8459535636ba6dc2734975f415d37c9ff3"),
    "bare": (
        lambda: emit_svg_linechart(
            [Series(label="s", xs=[1.0, 2.0, 3.0], ys=[0.2, 0.1, 0.4])], AxesSpec()),
        "25ca5ec43d5acb4ea990e04131c01ae1cfe5f3294c7ece43f32b5aefa5dfd91d"),
    "constant": (
        lambda: emit_svg_linechart(
            [Series(label="flat", xs=[1.0, 1.0], ys=[2.0, 2.0])], AxesSpec(title="constant")),
        "e49558f7fb82e9f76734f5f704c3cbe2359dfea1ff0f4aff007aaea35a9958fd"),
    "log_x": (
        lambda: emit_svg_linechart(
            [Series(label="s", xs=[1e-5, 3e-3, 0.7], ys=[1.2, 0.8, 2.5])],
            AxesSpec(title="log", x_label="rate", y_label="loss", log_x=True)),
        "0cc4ff6dba2d4312ee53d4a29fba3c2693e11fcce9429e012e72a975543f821b"),
    "palette_wraps": (
        lambda: emit_svg_linechart(
            [Series(label=f"s{i}", xs=[0.0, 1.0, 2.0], ys=[0.1 * i, 0.5, 1.0 - 0.1 * i])
             for i in range(len(PALETTE) + 2)],
            AxesSpec(title="ten series", x_label="x", y_label="y")),
        "1c1c7c8ce437d645750ac9141935c5576273167c6738b616ead117b96a47b6eb"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_chart_bytes_pinned(case):
    render, digest = PINNED[case]
    assert hashlib.sha256(render().encode("utf-8")).hexdigest() == digest
