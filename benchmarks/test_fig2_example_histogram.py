"""Figure 2: an example inter-arrival time histogram.

Renders the inter-arrival histogram (0–2500 µs) of the busiest device
in the office 1 trace — the paper's Figure 2 shows exactly this kind
of multi-modal density for one device.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.plots import render_histogram
from repro.core.histogram import Histogram, UniformBins
from repro.core.parameters import InterArrivalTime


def test_fig2_example_interarrival_histogram(datasets, benchmark):
    trace, _training_s = datasets["office1"]
    parameter = InterArrivalTime()

    # Busiest attributable device (ties go to the first to transmit:
    # codes follow first appearance).
    table = trace.table()
    counts = np.bincount(table.sender_idx[table.sender_idx >= 0])
    busiest = table.senders[int(counts.argmax())]

    bins = UniformBins(lo=0.0, hi=2500.0, width=50.0, drop_outside=True)

    def build() -> Histogram:
        table = trace.table()
        observed = parameter.observe_table(table)
        mine = observed.sender_idx == table.sender_code(busiest)
        histogram = Histogram(bins)
        histogram.add_array(observed.values[mine])
        return histogram

    histogram = benchmark.pedantic(build, rounds=1, iterations=1)
    frequencies = histogram.frequencies()
    print()
    print(
        render_histogram(
            frequencies,
            bins,
            title=(
                f"Figure 2: inter-arrival histogram of {busiest} "
                f"({histogram.total} observations, office 1)"
            ),
        )
    )

    # The density is multi-modal and concentrated well inside the
    # 0-2500 µs range, as in the paper's example.
    assert histogram.total > 500
    occupied = np.flatnonzero(frequencies > 0.005)
    assert len(occupied) >= 3
