"""Fig. 8 — time-per-link vs. corpus size (Section 3.3).

Same sweep as Table 3, rendered as the paper's curve: the figure's point
is that the per-link cost is *sublinear* — "all overhead quickly
amortizes and diminishes relative to productive linking work".

Expected shape: the series does not grow linearly with corpus size; the
final point is below a small multiple of the series minimum, and far
below a linear extrapolation from the first point.
"""

from conftest import emit


def test_fig8_time_per_link_curve(table3_sweep):
    result = table3_sweep
    emit("Fig. 8 (paper: sublinear time complexity)", result.format_fig8())

    series = result.fig8_series()
    sizes = [size for size, __ in series]
    per_link = [value for __, value in series]

    # If linking were superlinear, per-link time would scale with corpus
    # size.  Demand the opposite: going from the smallest to the largest
    # corpus (a growth factor of sizes[-1]/sizes[0]) the per-link time
    # must grow far less than linearly.
    growth = sizes[-1] / sizes[0]
    assert per_link[-1] < per_link[0] * growth / 2

    # And the tail is flat-ish: last point within 3x of the minimum.
    assert per_link[-1] < 3.0 * min(per_link)
