"""The MaxPr ("maximize surprise") objective.

``MaxPr(T) = Pr[ f(X) < f(u) - tau | X_{O \\ T} = u_{O \\ T} ]``

Cleaning the objects in ``T`` replaces their current values with fresh draws
from their distributions while every other object keeps its current value; the
objective is the probability that the query-function result drops by more than
``tau`` (a counterargument is found).  By convention the empty set has
objective value zero.

Strategies:

* :func:`surprise_probability_exact` — enumerate the joint support of ``T``
  (discrete distributions, independent errors).
* :func:`surprise_probability_monte_carlo` — sampling estimator, any
  distributions.
* :func:`surprise_probability_normal_linear` — closed form for affine query
  functions with independent normal errors (Lemma 3.3):
  ``Phi((-tau - shift) / sqrt(sum_{i in T} a_i^2 sigma_i^2))`` where ``shift``
  accounts for error models not centered at the current values.
* :func:`surprise_probability_discrete_linear` — exact drop distribution of a
  linear ``f`` over discrete errors by support convolution.

These per-set calculators score one cleaning set per call.  The greedy and
adaptive MaxPr loops instead run on a :class:`SurpriseEngine`: it keeps the
selected prefix's drop distribution and scores *every* candidate against it
in one vectorized pass, so a run pays one convolution per pick rather than
one per candidate per pick.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import stats

from repro import kernels
from repro.claims.functions import ClaimFunction
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import NormalSpec, convolve_support

__all__ = [
    "surprise_probability_exact",
    "surprise_probability_monte_carlo",
    "surprise_probability_normal_linear",
    "surprise_probability_discrete_linear",
    "make_surprise_calculator",
    "SurpriseBase",
    "SurpriseEngine",
]


_EXACT_BATCH_ROWS = 4096  # rows per batched block: bounds the (rows, n) matrix

#: Above this many joint outcomes (the product of the cleaned objects'
#: support sizes) the discrete drop distribution is replaced by its
#: central-limit closed form.
MAX_EXACT_OUTCOMES = 200_000
#: A drop counts only when it clears ``-tau`` by this margin, so outcomes
#: that land on the threshold up to rounding are not counted.
_DROP_MARGIN = 1e-12

#: The ``method`` values :func:`make_surprise_calculator` accepts.
SURPRISE_METHODS = ("auto", "normal", "convolution", "exact", "monte_carlo")


def surprise_probability_exact(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    tau: float = 0.0,
    baseline: Optional[float] = None,
) -> float:
    """Exact MaxPr objective by enumerating the cleaning outcomes of ``T``.

    Only the cleaned objects are random; everything else stays at its current
    value, so the enumeration is over ``V_T`` alone (restricted further to the
    objects the query function references — cleaned objects the function
    ignores cannot change ``f``).  The joint support is evaluated in batched
    ``(worlds, n)`` blocks with ``evaluate_batch``.
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    current = database.current_values
    target = (function.evaluate(current) if baseline is None else baseline) - tau

    relevant = [i for i in cleaned_set if i in function.referenced_indices]
    if not relevant:
        return 0.0

    worlds, probabilities = database.joint_support_arrays(relevant)
    probability = 0.0
    for start in range(0, worlds.shape[0], _EXACT_BATCH_ROWS):
        block = worlds[start : start + _EXACT_BATCH_ROWS]
        block_probs = probabilities[start : start + _EXACT_BATCH_ROWS]
        matrix = np.tile(current, (block.shape[0], 1))
        matrix[:, relevant] = block
        results = function.evaluate_batch(matrix)
        probability += float(block_probs[results < target - _DROP_MARGIN].sum())
    return float(probability)


def surprise_probability_monte_carlo(
    database: UncertainDatabase,
    function: ClaimFunction,
    cleaned: Iterable[int],
    rng: np.random.Generator,
    tau: float = 0.0,
    samples: int = 2000,
    baseline: Optional[float] = None,
) -> float:
    """Monte-Carlo estimate of the MaxPr objective.

    Draws every cleaning outcome in one vectorized
    ``distribution.sample(rng, size=samples)`` call per cleaned column and
    evaluates the whole ``(samples, n)`` matrix with one ``evaluate_batch``
    call.
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    current = database.current_values
    target = (function.evaluate(current) if baseline is None else baseline) - tau

    matrix = np.tile(current, (samples, 1))
    for index in cleaned_set:
        matrix[:, index] = database[index].sample(rng, size=samples)
    results = function.evaluate_batch(matrix)
    return float(np.count_nonzero(results < target - _DROP_MARGIN)) / samples


def surprise_probability_normal_linear(
    database: UncertainDatabase,
    weights: Sequence[float],
    cleaned: Iterable[int],
    tau: float = 0.0,
) -> float:
    """Closed-form MaxPr objective for an affine ``f`` with independent normal errors.

    With ``X_i ~ N(mu_i, sigma_i^2)`` independent and only the cleaned objects
    re-drawn, ``f(X') - f(u)`` is normal with mean
    ``sum_{i in T} w_i (mu_i - u_i)`` and variance
    ``sum_{i in T} w_i^2 sigma_i^2``, so the objective is a single normal CDF
    evaluation.  When the errors are centered at the current values the mean
    shift vanishes and maximizing the objective is equivalent to maximizing
    ``sum_{i in T} w_i^2 sigma_i^2`` (Lemma 3.3).
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    weights = np.asarray(weights, dtype=float)

    mean_shift = 0.0
    variance = 0.0
    for index in cleaned_set:
        obj = database[index]
        if not isinstance(obj.distribution, NormalSpec):
            raise TypeError(
                f"object {obj.name!r} does not have a normal error model; "
                "use the exact or Monte-Carlo objective instead"
            )
        w = weights[index]
        mean_shift += w * (obj.distribution.mean - obj.current_value)
        variance += (w**2) * obj.distribution.variance

    if variance <= 0.0:
        return 1.0 if mean_shift < -tau else 0.0
    return float(stats.norm.cdf((-tau - mean_shift) / np.sqrt(variance)))


def surprise_probability_discrete_linear(
    database: UncertainDatabase,
    weights: Sequence[float],
    cleaned: Iterable[int],
    tau: float = 0.0,
    max_exact_outcomes: int = MAX_EXACT_OUTCOMES,
) -> float:
    """MaxPr objective for a linear ``f`` over independent discrete errors.

    Only the cleaned objects are re-drawn, so
    ``f(X') - f(u) = sum_{i in T} w_i (X_i - u_i)`` — a weighted sum of
    independent discrete variables.  Its distribution is computed exactly by
    array-based sequential convolution (outer sums merged with ``np.unique``)
    as long as the number of outcomes stays below ``max_exact_outcomes``;
    beyond that the sum of many independent bounded terms is well approximated
    by a normal and the objective falls back to the central-limit closed form
    (the same shape as Lemma 3.3).
    """
    cleaned_set = sorted(set(int(i) for i in cleaned))
    if not cleaned_set:
        return 0.0
    weights = np.asarray(weights, dtype=float)

    relevant = []
    outcome_count = 1
    for index in cleaned_set:
        obj = database[index]
        distribution = obj.distribution
        if isinstance(distribution, NormalSpec):
            raise TypeError(
                f"object {obj.name!r} has a normal error model; use the normal "
                "closed form or the Monte-Carlo objective instead"
            )
        weight = float(weights[index])
        if weight == 0.0:
            continue
        relevant.append((obj, distribution, weight))
        outcome_count *= distribution.support_size

    if not relevant:
        return 0.0

    if outcome_count > max_exact_outcomes:
        # Central-limit fallback: many independent bounded contributions.
        mean_shift = sum(w * (d.mean - o.current_value) for o, d, w in relevant)
        variance = sum((w**2) * d.variance for o, d, w in relevant)
        if variance <= 0.0:
            return 1.0 if mean_shift < -tau else 0.0
        return float(stats.norm.cdf((-tau - mean_shift) / np.sqrt(variance)))

    # A merged support never outgrows the product of the support sizes,
    # which the check above already bounds.
    drops = np.zeros(1, dtype=float)
    masses = np.ones(1, dtype=float)
    for obj, distribution, weight in relevant:
        drops, masses = convolve_support(
            drops,
            masses,
            weight * (distribution.values - obj.current_value),
            distribution.probabilities,
        )

    return float(masses[drops < -tau - _DROP_MARGIN].sum())


class SurpriseBase:
    """The per-database arrays a :class:`SurpriseEngine` scores from.

    For a linear ``f`` with weights ``w``, re-drawing object ``i`` moves
    ``f`` by ``w_i (X_i - u_i)``.  The base stores, per object, the moments of
    that drop — ``shift_i = w_i (mu_i - u_i)`` and ``var_i = w_i^2
    sigma_i^2`` — and, for discrete models, its support ``w_i (v - u_i)``
    in ascending order, flattened into one array with the masses, each
    entry's owning object, the segment offsets and the support sizes.  It
    holds arrays only, never the database, so a weakly keyed per-database
    cache can keep it without pinning its key.

    Build one with :meth:`build`, which returns None when no engine path
    serves the function/database/method combination.
    """

    def __init__(self, database: UncertainDatabase, weights: np.ndarray, mode: str):
        self.mode = mode
        current = database.current_values
        self.shift = weights * (database.means - current)
        self.variance = (weights**2) * database.variances
        self.zero_weight = weights == 0.0
        if mode != "discrete":
            return
        n = len(database)
        drops: list = []
        masses: list = []
        sizes = np.empty(n, dtype=np.int64)
        for i in range(n):
            distribution = database[i].distribution
            support = weights[i] * (distribution.values - current[i])
            # Ascending drops: the order the per-set calculator sums a
            # singleton's mass in (see SurpriseEngine.probabilities).
            order = np.argsort(support, kind="stable")
            drops.append(support[order])
            masses.append(distribution.probabilities[order])
            sizes[i] = support.size
        self.drops = np.concatenate(drops)
        self.masses = np.concatenate(masses)
        self.sizes = sizes
        self.owners = np.repeat(np.arange(n), sizes)
        self.offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))

    @classmethod
    def build(
        cls, database: UncertainDatabase, function: ClaimFunction, method: str = "auto"
    ) -> Optional["SurpriseBase"]:
        """The base for a linear ``f`` on an all-normal or all-discrete database.

        ``method`` ``"auto"``/``"normal"`` takes the closed form on an
        all-normal database and ``"auto"``/``"convolution"`` the exact drop
        distribution on an all-discrete one — the routing of
        :func:`make_surprise_calculator`.  Anything else returns None.
        """
        if not function.is_linear():
            return None
        if method in ("auto", "normal") and database.all_normal():
            mode = "normal"
        elif method in ("auto", "convolution") and database.all_discrete():
            mode = "discrete"
        else:
            return None
        return cls(database, function.weights(len(database)), mode)


class SurpriseEngine:
    """``Pr[D_{S+i} < -tau]`` for every object ``i`` against a selected prefix ``S``.

    ``D_S = sum_{j in S} w_j (X_j - u_j)`` is how far a linear ``f`` moves
    when the prefix is re-drawn.  The engine keeps ``D_S`` and answers
    :meth:`probabilities` for every candidate at once:

    * discrete models keep ``D_S``'s pmf as sorted drops plus cumulative
      mass, so candidate ``i`` scores
      ``sum_m p_im * Pr[D_S < -tau - 1e-12 - d_im]`` — one ``searchsorted``
      and one per-object segment sum over the flattened supports, costing
      O(sum |supp| * log |pmf_S|) per pass;
    * normal models keep the ``(shift, variance)`` sums, so every candidate
      is one Lemma 3.3 closed form in a single
      :func:`repro.kernels.normal_surprise_scores` call.

    :meth:`condition_on` adds one object to the prefix with one
    :func:`repro.kernels.convolve_support` merge.  The central-limit switch
    is :func:`surprise_probability_discrete_linear`'s: a candidate whose
    support-size product with the prefix exceeds ``MAX_EXACT_OUTCOMES`` is
    scored by the closed form on the summed moments, and once the prefix
    itself exceeds it the engine stops merging.

    Each mode keeps its per-set calculator's conventions, which are also
    the engine's test reference: the discrete path drops zero-weight
    objects (a set of them scores 0), the normal path counts them (a
    zero-variance set scores the indicator ``shift < -tau``, which is 1 for
    ``tau < 0``), and the empty set scores 0.  Entries of
    :meth:`probabilities` for objects already in the prefix carry no
    meaning.
    """

    def __init__(self, base: SurpriseBase):
        self.base = base
        self._size = 0
        self._shift = 0.0
        self._variance = 0.0
        # Discrete state: the nonzero-weight objects merged so far and the
        # product of their support sizes, then D_S's pmf (sorted drops, their
        # masses and the cumulative mass with a leading 0).  The pmf is None
        # once the prefix is past the exact-outcome cap.
        self._relevant = 0
        self._outcomes = 1
        self._drops: Optional[np.ndarray] = np.zeros(1)
        self._masses = np.ones(1)
        self._cumulative = np.array([0.0, 1.0])

    def condition_on(self, index: int) -> None:
        """Add object ``index`` to the prefix (at most one support merge)."""
        base = self.base
        self._size += 1
        self._shift += float(base.shift[index])
        self._variance += float(base.variance[index])
        if base.mode != "discrete" or base.zero_weight[index]:
            return
        self._relevant += 1
        if self._drops is None:
            return
        self._outcomes *= int(base.sizes[index])
        if self._outcomes > MAX_EXACT_OUTCOMES:
            self._drops = self._masses = self._cumulative = None
            return
        start = base.offsets[index]
        stop = start + base.sizes[index]
        self._drops, self._masses = kernels.convolve_support(
            self._drops, self._masses, base.drops[start:stop], base.masses[start:stop]
        )
        self._cumulative = np.concatenate(([0.0], np.cumsum(self._masses)))

    @staticmethod
    def _closed_form(shifts: np.ndarray, variances: np.ndarray, tau: float) -> np.ndarray:
        return np.asarray(
            kernels.normal_surprise_scores(shifts, np.sqrt(variances), tau), dtype=float
        )

    def probability(self, tau: float) -> float:
        """``Pr[D_S < -tau]`` for the prefix itself (0 for the empty set)."""
        if self.base.mode == "normal" and self._size == 0:
            return 0.0
        if self.base.mode == "discrete":
            if self._relevant == 0:
                return 0.0
            if self._drops is not None:
                position = np.searchsorted(self._drops, -tau - _DROP_MARGIN, side="left")
                return float(self._cumulative[position])
        return float(
            self._closed_form(np.array([self._shift]), np.array([self._variance]), tau)[0]
        )

    def probabilities(self, tau: float) -> np.ndarray:
        """``Pr[D_{S+i} < -tau]`` for every object ``i``, in one pass."""
        base = self.base
        if base.mode == "normal":
            return self._closed_form(self._shift + base.shift, self._variance + base.variance, tau)
        n = base.sizes.size
        moving = ~base.zero_weight
        if self._drops is not None:
            positions = np.searchsorted(
                self._drops, (-tau - _DROP_MARGIN) - base.drops, side="left"
            )
            # bincount adds each object's terms left to right from 0, so at
            # the empty prefix a score is the per-set calculator's own sum
            # (for supports under 8 points, where numpy's sum is sequential)
            # and the single-item safeguard breaks exact ties the same way.
            scores = np.bincount(
                base.owners, weights=base.masses * self._cumulative[positions], minlength=n
            )
            central = moving & (self._outcomes * base.sizes > MAX_EXACT_OUTCOMES)
        else:
            scores = np.empty(n)
            central = moving
        if central.any():
            scores[central] = self._closed_form(
                self._shift + base.shift[central], self._variance + base.variance[central], tau
            )
        if not moving.all():
            # A zero-weight object cannot move f: cleaning it adds nothing.
            scores[~moving] = self.probability(tau)
        return scores


def finite_tau(tau: float) -> float:
    """``tau`` as a float; NaN or an infinity raises ``ValueError``.

    A NaN threshold makes every comparison false, so a MaxPr run would
    silently select nothing.
    """
    value = float(tau)
    if not math.isfinite(value):
        raise ValueError(f"tau must be finite, got {tau!r}")
    return value


def check_surprise_options(method: str, monte_carlo_samples: int) -> None:
    """Reject an unknown ``method`` or a sample count that is not an integer >= 1."""
    if method not in SURPRISE_METHODS:
        raise ValueError(f"method must be one of {list(SURPRISE_METHODS)}, got {method!r}")
    if (
        isinstance(monte_carlo_samples, bool)
        or not isinstance(monte_carlo_samples, numbers.Integral)
        or monte_carlo_samples < 1
    ):
        raise ValueError(
            f"monte_carlo_samples must be an integer >= 1, got {monte_carlo_samples!r}"
        )


def make_surprise_calculator(
    database: UncertainDatabase,
    function: ClaimFunction,
    tau: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    monte_carlo_samples: int = 4000,
    method: str = "auto",
):
    """Return a callable ``pr(cleaned) -> float`` choosing the best strategy.

    ``method`` is one of ``"auto"``, ``"normal"``, ``"convolution"``,
    ``"exact"``, ``"monte_carlo"``.  The automatic preference order is:
    closed form (linear + all-normal database), convolution (linear +
    all-discrete), exact enumeration (all-discrete), Monte-Carlo fallback.
    An explicit method the function or database cannot serve raises
    ``ValueError`` rather than quietly sampling.
    """
    check_surprise_options(method, monte_carlo_samples)
    linear = function.is_linear()
    if method == "normal" and not (linear and database.all_normal()):
        raise ValueError("method='normal' needs a linear f and an all-normal database")
    if method == "convolution" and not (linear and database.all_discrete()):
        raise ValueError("method='convolution' needs a linear f and an all-discrete database")
    if method == "exact" and not database.all_discrete():
        raise ValueError("method='exact' needs an all-discrete database")

    if method in {"auto", "normal"} and linear and database.all_normal():
        weights = function.weights(len(database))

        def normal_pr(cleaned: Iterable[int]) -> float:
            return surprise_probability_normal_linear(database, weights, cleaned, tau=tau)

        return normal_pr

    if method in {"auto", "convolution"} and linear and database.all_discrete():
        weights = function.weights(len(database))

        def convolution_pr(cleaned: Iterable[int]) -> float:
            return surprise_probability_discrete_linear(database, weights, cleaned, tau=tau)

        return convolution_pr

    if method in {"auto", "exact"} and database.all_discrete():

        def exact_pr(cleaned: Iterable[int]) -> float:
            return surprise_probability_exact(database, function, cleaned, tau=tau)

        return exact_pr

    sampler_rng = rng if rng is not None else np.random.default_rng(0)

    def monte_carlo_pr(cleaned: Iterable[int]) -> float:
        return surprise_probability_monte_carlo(
            database, function, cleaned, sampler_rng, tau=tau, samples=monte_carlo_samples
        )

    return monte_carlo_pr
