"""Brute-force row noise: an independent cross-check of the fast metric.

Plain nested loops, free of numpy and of any helper shared with
rownoise.metric, so a fault in the vectorized path cannot hide in both.
"""

import math


def oracle_row_noise(frame) -> float:
    """Same quantity as rownoise.metric.row_noise_single."""
    if frame.rows < 2:
        raise ValueError(f"need at least 2 rows, got {frame.rows}")
    channel_sigmas = []
    for c in range(frame.channels):
        means = []
        for r in range(frame.rows):
            total = 0.0
            for x in range(frame.width):
                total += float(frame.pixels[c][r][x])
            means.append(total / frame.width)
        grand = sum(means) / len(means)
        ss = 0.0
        for m in means:
            ss += (m - grand) ** 2
        channel_sigmas.append(math.sqrt(ss / (len(means) - 1)))
    return sum(channel_sigmas) / len(channel_sigmas)
