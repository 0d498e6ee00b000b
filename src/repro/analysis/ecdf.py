"""Empirical cumulative distribution functions.

Used for Figure 1 (access lengths) and Figure 3 (leak-to-access delays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError


@dataclass(frozen=True)
class Ecdf:
    """An ECDF over a sample, with evaluation and quantile helpers."""

    x: np.ndarray  # sorted sample values
    y: np.ndarray  # cumulative fractions in (0, 1]

    @classmethod
    def from_sample(cls, values) -> "Ecdf":
        """Build an ECDF from a non-empty sequence of numbers (a list,
        an ``array('d')``, a numpy array)."""
        array = np.sort(np.asarray(values, dtype=float), kind="stable")
        if array.size == 0:
            raise AnalysisError("cannot build an ECDF from an empty sample")
        fractions = np.arange(1, array.size + 1, dtype=float) / array.size
        return cls(x=array, y=fractions)

    @property
    def n(self) -> int:
        return int(self.x.size)

    def evaluate(self, value: float) -> float:
        """P(X <= value)."""
        return float(np.searchsorted(self.x, value, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """Smallest sample value v with ECDF(v) >= q."""
        if not 0.0 < q <= 1.0:
            raise AnalysisError(f"quantile must be in (0, 1], got {q}")
        index = int(np.ceil(q * self.n)) - 1
        return float(self.x[max(index, 0)])

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def series(self) -> list[tuple[float, float]]:
        """(x, y) pairs for plotting."""
        return list(zip(self.x.tolist(), self.y.tolist()))
