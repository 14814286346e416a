"""Bounded Zipfian sampling.

The TPCD-Skew benchmark (paper §7.1, Chaudhuri & Narasayya) draws
attribute values from a Zipfian distribution over a *finite* domain with
exponent z ∈ {1, 2, 3, 4}; z = 1 corresponds to basic TPCD and larger z
means a heavier tail.  numpy's ``random.zipf`` is unbounded, so we
implement the bounded variant directly from the normalized rank
probabilities p(r) ∝ 1 / r^z.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ZipfGenerator:
    """Draw ranks from a bounded Zipfian distribution.

    Parameters
    ----------
    n:
        Domain size; draws are integers in ``[0, n)`` (rank 0 is the most
        probable value).
    z:
        Skew exponent; ``z == 0`` degenerates to uniform.
    rng:
        Optional ``numpy.random.Generator`` for determinism.
    """

    def __init__(self, n: int, z: float, rng: Optional[np.random.Generator] = None):
        if n <= 0:
            raise ValueError(f"domain size must be positive: {n}")
        if z < 0:
            raise ValueError(f"zipf exponent must be non-negative: {z}")
        self.n = int(n)
        self.z = float(z)
        self._rng = rng if rng is not None else np.random.default_rng()
        ranks = np.arange(1, self.n + 1, dtype=float)
        weights = ranks ** (-self.z)
        self._probs = weights / weights.sum()

    def draw(self, size: int) -> np.ndarray:
        """``size`` independent draws (array of ints in [0, n))."""
        return self._rng.choice(self.n, size=size, p=self._probs)

    def pmf(self) -> np.ndarray:
        """The probability mass function over ranks 0..n-1."""
        return self._probs.copy()


def zipf_values(
    n_values: int,
    domain: int,
    z: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Convenience wrapper: ``n_values`` Zipf(z) draws over ``[0, domain)``."""
    return ZipfGenerator(domain, z, rng=rng).draw(n_values)
