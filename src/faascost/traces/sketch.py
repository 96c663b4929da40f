"""Fixed-size streaming quantile sketch (Greenwald-Khanna style).

Keeps million-row trace aggregations in bounded memory. Rank error is at
most ``eps`` of the stream length.
"""

from __future__ import annotations

import bisect
import math
from typing import List


class QuantileSketch:
    """Greenwald-Khanna sketch over floats.

    Entries are (value, g, delta) triples: g is the rank mass the entry
    absorbed, delta the extra rank uncertainty it was inserted with.
    """

    def __init__(self, eps: float = 0.005):
        if not 0 < eps < 0.5:
            raise ValueError("eps must be in (0, 0.5)")
        self.eps = eps
        self.n = 0
        self._values: List[float] = []
        self._g: List[int] = []
        self._delta: List[int] = []
        self._pending = 0
        self._compress_every = max(1, int(1.0 / (2.0 * eps)))
        self._sum = 0.0

    def __len__(self) -> int:
        return self.n

    def insert(self, value: float) -> None:
        value = float(value)
        i = bisect.bisect_right(self._values, value)
        if i == 0 or i == len(self._values):
            delta = 0
        else:
            delta = max(0, int(math.floor(2.0 * self.eps * self.n)) - 1)
        self._values.insert(i, value)
        self._g.insert(i, 1)
        self._delta.insert(i, delta)
        self.n += 1
        self._sum += value
        self._pending += 1
        if self._pending >= self._compress_every:
            self._compress()

    def _compress(self) -> None:
        self._pending = 0
        if len(self._values) < 3:
            return
        budget = math.floor(2.0 * self.eps * self.n)
        values, g, delta = self._values, self._g, self._delta
        # Merge right-to-left; the first and last entries stay exact.
        i = len(values) - 2
        while i >= 1:
            if g[i] + g[i + 1] + delta[i + 1] <= budget:
                g[i + 1] += g[i]
                del values[i], g[i], delta[i]
            i -= 1

    def query(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within eps rank error."""
        if self.n == 0:
            raise ValueError("empty sketch")
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        target = max(1, math.ceil(q * self.n))
        allowed = max(1.0, self.eps * self.n)
        rank_min = 0
        for i in range(len(self._values) - 1):
            rank_min += self._g[i]
            if rank_min + self._g[i + 1] + self._delta[i + 1] > target + allowed:
                return self._values[i]
        return self._values[-1]

    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("empty sketch")
        return self._sum / self.n
