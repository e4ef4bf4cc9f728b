"""Value distributions for uncertain objects.

The paper assumes each object's true value is a random variable with a known
distribution.  Two families cover everything the evaluation uses:

* finite discrete distributions (:class:`DiscreteDistribution`) -- the general
  case used by the synthetic URx/LNx/SMx workloads and by the exact
  expected-variance computations, and
* normal error models (:class:`NormalSpec`) -- the CDC/Adoptions datasets, the
  modular MaxPr results (Lemma 3.3) and the multivariate-normal alignment
  result (Theorem 3.9).  Normals are discretized with :func:`discretize_normal`
  when an algorithm needs a finite support (as the paper does in Section 4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from repro import kernels

__all__ = [
    "DiscreteDistribution",
    "NormalSpec",
    "discretize_normal",
    "convolve_support",
]


def convolve_support(
    values: np.ndarray,
    probabilities: np.ndarray,
    contributions: np.ndarray,
    contribution_probabilities: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One array-convolution step: add an independent term to a discrete pmf.

    Forms the outer sum of the accumulated support ``values`` with the new
    term's ``contributions``, multiplies the probabilities, and merges equal
    sums.  Returns the merged ``(values, probabilities)`` with values sorted
    ascending.  This is the shared kernel behind the weighted-sum pmf of the
    expected-variance path and the drop-distribution convolution of the
    MaxPr path: :func:`repro.kernels.convolve_support` merges with
    ``np.unique`` + ``np.bincount``, so values equal under ``==`` collapse.
    """
    values = np.asarray(values, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    contributions = np.asarray(contributions, dtype=float)
    contribution_probabilities = np.asarray(contribution_probabilities, dtype=float)
    return kernels.convolve_support(
        values, probabilities, contributions, contribution_probabilities
    )

_PROBABILITY_TOLERANCE = 1e-9


class DiscreteDistribution:
    """A finite-support probability distribution over real values.

    Parameters
    ----------
    values:
        Support points.  Duplicates are merged (their probabilities added).
    probabilities:
        Nonnegative weights, one per value.  They are normalized to sum to 1.

    The distribution is immutable after construction; all derived quantities
    (mean, variance) are cached.
    """

    __slots__ = ("_values", "_probabilities", "_mean", "_variance")

    def __init__(self, values: Sequence[float], probabilities: Sequence[float]):
        values = np.asarray(values, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        if values.ndim != 1 or probabilities.ndim != 1:
            raise ValueError("values and probabilities must be one-dimensional")
        if values.shape != probabilities.shape:
            raise ValueError(
                f"values ({values.shape}) and probabilities ({probabilities.shape}) "
                "must have the same length"
            )
        if values.size == 0:
            raise ValueError("a distribution needs at least one support point")
        if np.any(probabilities < -_PROBABILITY_TOLERANCE):
            raise ValueError("probabilities must be nonnegative")
        probabilities = np.clip(probabilities, 0.0, None)
        total = probabilities.sum()
        if total <= 0:
            raise ValueError("probabilities must not all be zero")
        probabilities = probabilities / total

        # Merge duplicate support points so the support is a proper set.
        order = np.argsort(values, kind="stable")
        values = values[order]
        probabilities = probabilities[order]
        merged_values = []
        merged_probs = []
        for v, p in zip(values, probabilities):
            if merged_values and math.isclose(v, merged_values[-1], rel_tol=0.0, abs_tol=1e-12):
                merged_probs[-1] += p
            else:
                merged_values.append(float(v))
                merged_probs.append(float(p))
        self._values = np.array(merged_values, dtype=float)
        self._probabilities = np.array(merged_probs, dtype=float)
        self._mean = float(np.dot(self._values, self._probabilities))
        second_moment = float(np.dot(self._values**2, self._probabilities))
        self._variance = max(second_moment - self._mean**2, 0.0)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        """Distribution concentrated on a single value (a cleaned object)."""
        return cls([value], [1.0])

    @classmethod
    def uniform(cls, values: Sequence[float]) -> "DiscreteDistribution":
        """Uniform distribution over the given support points."""
        values = list(values)
        return cls(values, [1.0] * len(values))

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteDistribution":
        """Bernoulli distribution on {0, 1} with success probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        return cls([0.0, 1.0], [1.0 - p, p])

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """Support points, sorted ascending."""
        return self._values

    @property
    def probabilities(self) -> np.ndarray:
        """Probabilities aligned with :attr:`values`."""
        return self._probabilities

    @property
    def support_size(self) -> int:
        """Number of support values."""
        return int(self._values.size)

    @property
    def mean(self) -> float:
        """Mean of the distribution."""
        return self._mean

    @property
    def variance(self) -> float:
        """Variance of the distribution."""
        return self._variance

    @property
    def std(self) -> float:
        """Standard deviation of the distribution."""
        return math.sqrt(self._variance)

    def is_certain(self) -> bool:
        """True when the distribution is a point mass (no uncertainty left)."""
        return self.support_size == 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def pmf(self, value: float) -> float:
        """Probability mass assigned to ``value`` (0 if not in support)."""
        idx = np.flatnonzero(np.isclose(self._values, value, rtol=0.0, atol=1e-12))
        if idx.size == 0:
            return 0.0
        return float(self._probabilities[idx[0]])

    def cdf(self, value: float) -> float:
        """Probability of drawing a value ``<= value``."""
        return float(self._probabilities[self._values <= value + 1e-12].sum())

    def prob_less_than(self, threshold: float) -> float:
        """Probability of drawing a value strictly below ``threshold``."""
        return float(self._probabilities[self._values < threshold - 1e-12].sum())

    def expectation_of(self, func) -> float:
        """Expected value of ``func`` applied to a draw from the distribution."""
        return float(sum(p * func(v) for v, p in zip(self._values, self._probabilities)))

    def variance_of(self, func) -> float:
        """Variance of ``func`` applied to a draw from the distribution."""
        first = 0.0
        second = 0.0
        for v, p in zip(self._values, self._probabilities):
            fv = func(v)
            first += p * fv
            second += p * fv * fv
        return max(second - first * first, 0.0)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw samples using ``rng``; returns a scalar when ``size`` is None."""
        draws = rng.choice(self._values, size=size, p=self._probabilities)
        if size is None:
            return float(draws)
        return draws

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __iter__(self):
        return iter(zip(self._values, self._probabilities))

    def __len__(self) -> int:
        return self.support_size

    def __repr__(self) -> str:
        pairs = ", ".join(f"{v:g}:{p:.3f}" for v, p in self)
        return f"DiscreteDistribution({pairs})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return (
            self.support_size == other.support_size
            and np.allclose(self._values, other._values)
            and np.allclose(self._probabilities, other._probabilities)
        )

    def __hash__(self):
        return hash((tuple(np.round(self._values, 12)), tuple(np.round(self._probabilities, 12))))


@dataclass(frozen=True)
class NormalSpec:
    """A normal error model ``X ~ N(mean, std**2)``.

    This is the error model of the Adoptions and CDC datasets and the setting
    of Lemma 3.3 / Theorem 3.9.  ``discretize`` converts it to a
    :class:`DiscreteDistribution` when an algorithm needs a finite support.
    """

    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("standard deviation must be nonnegative")

    @property
    def variance(self) -> float:
        """Variance ``std**2`` of the normal model."""
        return self.std**2

    def prob_less_than(self, threshold: float) -> float:
        """``Pr[X < threshold]`` under the normal model."""
        if self.std == 0:
            return 1.0 if self.mean < threshold else 0.0
        return float(stats.norm.cdf(threshold, loc=self.mean, scale=self.std))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one value (or ``size`` values) from the normal model."""
        draws = rng.normal(self.mean, self.std, size=size)
        if size is None:
            return float(draws)
        return draws

    def discretize(self, points: int = 6, method: str = "quantile") -> DiscreteDistribution:
        """Discretize to ``points`` support values; see :func:`discretize_normal`."""
        return discretize_normal(self.mean, self.std, points=points, method=method)


def discretize_normal(
    mean: float,
    std: float,
    points: int = 6,
    method: str = "quantile",
) -> DiscreteDistribution:
    """Discretize ``N(mean, std**2)`` onto ``points`` support values.

    Two methods are provided:

    * ``"quantile"`` (default, what Section 4.2 of the paper does for the CDC
      datasets): split the distribution into ``points`` equal-probability
      intervals and place one equally-weighted support point at the
      conditional mean of each interval.  This preserves the mean exactly and
      the variance closely.
    * ``"grid"``: place support points on an evenly spaced grid covering
      ``mean +/- 3 std`` and weight them by the normal density.

    A zero standard deviation yields a point mass at ``mean``.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if std <= 0:
        return DiscreteDistribution.point_mass(mean)

    if method == "quantile":
        edges = stats.norm.ppf(np.linspace(0.0, 1.0, points + 1), loc=mean, scale=std)
        values = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            # Conditional mean of a normal restricted to (lo, hi).
            a, b = (lo - mean) / std, (hi - mean) / std
            denom = stats.norm.cdf(b) - stats.norm.cdf(a)
            if denom <= 0:
                values.append(mean)
            else:
                values.append(mean + std * (stats.norm.pdf(a) - stats.norm.pdf(b)) / denom)
        return DiscreteDistribution(values, [1.0 / points] * points)

    if method == "grid":
        grid = np.linspace(mean - 3.0 * std, mean + 3.0 * std, points)
        density = stats.norm.pdf(grid, loc=mean, scale=std)
        return DiscreteDistribution(grid, density)

    raise ValueError(f"unknown discretization method: {method!r}")
