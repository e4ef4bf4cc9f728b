"""Correlated (multivariate normal) world models.

The paper's theoretical guarantees mostly assume independent errors, but
Section 4.5 evaluates what happens when errors are correlated: a covariance
matrix with entries ``gamma**|j-i| * sigma_i * sigma_j`` is injected into the
CDC-firearms dataset, and dependency-aware algorithms (``GreedyDep``, the
brute-force ``OPT``) exploit it.  Theorem 3.9 also needs the general
multivariate normal machinery (conditional covariance via the Schur
complement).  This module provides that machinery in two flavours:

* the *scratch* kernels — :func:`conditional_covariance` and the scalar
  :meth:`GaussianWorldModel.post_cleaning_variance` /
  :meth:`GaussianWorldModel.surprise_probability` — which rebuild the Schur
  complement with a pseudo-inverse on every call (one-off evaluations, and
  the references the engine is tested against);
* the *incremental* engine — :class:`ConditionalGaussian` — which maintains
  the conditional covariance ``Sigma|S`` under rank-one downdates, so
  conditioning on one more cleaned object costs O(n^2) and the marginal
  variance reduction of **every** remaining candidate is a single vectorized
  expression, ``gains = (Sigma|S w)^2 / diag(Sigma|S)``.

The identity behind the engine: for a multivariate normal, conditioning on
component ``j`` maps ``Sigma|S`` to ``Sigma|S - s_j s_j^T / Sigma_jj|S``
where ``s_j`` is column ``j`` of ``Sigma|S``.  Expanding the quadratic form
``w^T Sigma|S w`` under that downdate shows the variance removed by cleaning
``j`` is exactly ``(Sigma|S w)_j^2 / Sigma_jj|S`` — one matvec scores every
candidate at once, which is what turns GreedyDep from one Schur complement
per candidate per step into one O(n^2) pass per step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.uncertainty.database import UncertainDatabase

if TYPE_CHECKING:  # circular-import-free type reference only
    from repro.uncertainty.structured import StructuredCovariance

__all__ = [
    "decaying_covariance",
    "block_covariance",
    "banded_covariance",
    "conditional_covariance",
    "ConditionalGaussian",
    "GaussianWorldModel",
]


def decaying_covariance(stds: Sequence[float], gamma: float) -> np.ndarray:
    """Covariance matrix with geometrically decaying cross-correlations.

    ``Cov[X_i, X_j] = gamma**|j-i| * sigma_i * sigma_j`` — the dependency
    injection model of Section 4.5.  ``gamma = 0`` recovers independence and
    ``gamma`` close to 1 makes neighbouring years strongly dependent.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    stds = np.asarray(stds, dtype=float)
    if np.any(stds < 0):
        raise ValueError("standard deviations must be nonnegative")
    n = stds.size
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    decay = np.where(lags == 0, 1.0, gamma**lags)
    return decay * np.outer(stds, stds)


def block_covariance(
    stds: Sequence[float], block_size: int, rho: float
) -> np.ndarray:
    """Covariance with constant correlation ``rho`` inside consecutive blocks.

    Objects are grouped into consecutive blocks of ``block_size`` (the last
    block may be shorter); within a block every pair has correlation ``rho``,
    across blocks the errors are independent.  This models batched acquisition
    (one source per block, e.g. one agency reporting several years at once).
    Positive semi-definite for every ``rho`` in ``[0, 1]``: each block is
    ``(1 - rho) I + rho 1 1^T`` scaled by the stds.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    stds = np.asarray(stds, dtype=float)
    if np.any(stds < 0):
        raise ValueError("standard deviations must be nonnegative")
    n = stds.size
    if block_size > n:
        raise ValueError(
            f"block_size {block_size} exceeds n={n}; a single all-covering "
            "block is equicorrelated, not block-diagonal"
        )
    if block_size == 1 and rho != 0.0:
        raise ValueError(
            "block_size=1 with rho != 0 is degenerate: single-object blocks "
            "have no off-diagonal entries, so rho would be silently ignored"
        )
    blocks = np.arange(n) // block_size
    same_block = blocks[:, None] == blocks[None, :]
    eye = np.eye(n, dtype=bool)
    correlation = np.where(eye, 1.0, np.where(same_block, rho, 0.0))
    return correlation * np.outer(stds, stds)


def banded_covariance(
    stds: Sequence[float], bandwidth: int, rho: float = 1.0
) -> np.ndarray:
    """Banded covariance from a moving-average construction (PSD by design).

    Naively truncating a decaying covariance beyond some lag breaks positive
    semi-definiteness; instead each error is modelled as a one-sided moving
    average of the ``bandwidth + 1`` most recent i.i.d. shocks, with older
    shocks damped by ``rho`` per lag.  Components ``i`` and ``j`` then share
    shocks exactly when ``|i - j| <= bandwidth``, so the covariance is
    exactly zero beyond that lag, PSD by construction
    (``Sigma = D A A^T D``), and its diagonal is rescaled so component ``i``
    has variance ``stds[i]**2``.  ``bandwidth = 0`` recovers independence.
    """
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    stds = np.asarray(stds, dtype=float)
    if np.any(stds < 0):
        raise ValueError("standard deviations must be nonnegative")
    n = stds.size
    if bandwidth >= n:
        raise ValueError(
            f"bandwidth {bandwidth} must be smaller than n={n} "
            "(a full-width band is a dense matrix, not a banded one)"
        )
    # A[i, k] = damping of shock k in component i, causal: component i mixes
    # shocks k in [i - bandwidth, i] only, so (A A^T)_{ij} needs a shared
    # shock and vanishes beyond lag `bandwidth`.
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    damping = np.where((lags >= 0) & (lags <= bandwidth), rho ** np.abs(lags), 0.0)
    correlation = damping @ damping.T
    norms = np.sqrt(np.diagonal(correlation))
    correlation = correlation / np.outer(norms, norms)
    return correlation * np.outer(stds, stds)


def conditional_covariance(
    covariance: np.ndarray, observed: Sequence[int]
) -> np.ndarray:
    """Covariance of the unobserved components given the observed ones.

    For a multivariate normal, conditioning on any outcome of the observed
    components leaves the remaining components with covariance
    ``Sigma_rr - Sigma_ro Sigma_oo^{-1} Sigma_or`` (Schur complement), which
    does not depend on the observed values.  The returned matrix is indexed by
    the unobserved components in their original order.

    This is the scratch reference; :class:`ConditionalGaussian` produces the
    same matrix one observation at a time in O(n^2) per observation.
    """
    covariance = np.asarray(covariance, dtype=float)
    n = covariance.shape[0]
    observed = sorted(set(int(i) for i in observed))
    remaining = [i for i in range(n) if i not in observed]
    if not remaining:
        return np.zeros((0, 0))
    if not observed:
        return covariance[np.ix_(remaining, remaining)]
    sigma_rr = covariance[np.ix_(remaining, remaining)]
    sigma_ro = covariance[np.ix_(remaining, observed)]
    sigma_oo = covariance[np.ix_(observed, observed)]
    # Use the pseudo-inverse so degenerate (zero-variance or perfectly
    # correlated) observations are handled gracefully.
    adjustment = sigma_ro @ np.linalg.pinv(sigma_oo) @ sigma_ro.T
    return sigma_rr - adjustment


class ConditionalGaussian:
    """Incrementally maintained covariance of a Gaussian under cleaning.

    The engine keeps a full ``n x n`` working matrix in which the rows and
    columns of cleaned objects are zeroed, so quadratic forms over the full
    index set equal their restriction to the unclean objects — no index
    bookkeeping in the hot loop.  Two update modes:

    ``conditional=True``
        The working matrix is the conditional covariance ``Sigma|S``: each
        :meth:`condition_on` applies the rank-one downdate
        ``Sigma|S - s_j s_j^T / Sigma_jj|S`` (then zeroes row/column ``j``).
        This is the statistically exact multivariate-normal semantics and
        matches :func:`conditional_covariance` step for step.
    ``conditional=False``
        The working matrix is the *marginal* covariance of the objects left
        unclean (row/column zeroing only, no Schur adjustment) — the
        formulation the paper's Theorem 3.9 derivation uses.

    When ``weights`` are supplied the engine also maintains the matvec
    ``v = Sigma|S w`` across updates (O(n) extra per step), which makes

    * the current variance ``w^T Sigma|S w`` an O(n) dot product, and
    * the marginal benefit of cleaning *every* remaining candidate a single
      vectorized expression (:meth:`gains`): ``v^2 / diag`` in conditional
      mode, ``2 w v - w^2 diag`` in marginal mode.

    A degenerate pivot — ``Sigma_jj|S`` within a few ulps of zero *relative
    to that component's own original variance* — skips the downdate and only
    zeroes the row/column.  At that magnitude the pivot is indistinguishable
    from the rounding residue of cancellation (conditioning only ever
    shrinks diagonals), so dividing by it would amplify noise; this mirrors
    the relative cutoff ``pinv`` applies in the scratch path, and in that
    regime neither path's output is meaningful to tight tolerances anyway.
    Any pivot genuinely above the noise floor conditions normally, however
    small it is compared to *other* components — a globally tiny but
    informative component must still downdate (its column can carry O(1)
    variance reductions: the entries scale with sqrt(pivot) times the
    correlated components' scales).
    """

    #: Relative noise floor for pivots: a handful of ulps of the component's
    #: original variance.  Matches the scale of cancellation residue, far
    #: below any genuinely informative conditional variance.
    _PIVOT_RTOL = 16.0 * np.finfo(float).eps

    def __init__(
        self,
        covariance: np.ndarray,
        weights: Optional[Sequence[float]] = None,
        conditional: bool = True,
        validate: bool = True,
    ):
        sigma = np.array(covariance, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError(f"covariance must be square, got shape {sigma.shape}")
        if validate and not np.allclose(sigma, sigma.T, atol=1e-9):
            raise ValueError("covariance matrix must be symmetric")
        self._sigma = sigma
        self._n = int(sigma.shape[0])
        self._conditional = bool(conditional)
        self._cleaned: List[int] = []
        self._cleaned_mask = np.zeros(self._n, dtype=bool)
        # Per-component noise floor: relative to each component's own
        # original variance, NOT the peak diagonal — a globally tiny but
        # informative component must still condition.
        self._pivot_floor = np.abs(np.diagonal(sigma)) * self._PIVOT_RTOL
        self._weights: Optional[np.ndarray] = None
        self._matvec: Optional[np.ndarray] = None
        if weights is not None:
            self.set_weights(weights)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of components of the underlying Gaussian."""
        return self._n

    @property
    def conditional(self) -> bool:
        """True in conditional (Schur) mode, False in marginal mode."""
        return self._conditional

    @property
    def cleaned(self) -> List[int]:
        """Cleaned object indices, in conditioning order."""
        return list(self._cleaned)

    def is_cleaned(self, index: int) -> bool:
        """True if ``index`` was already conditioned on (``condition_on``
        raises for such indices, so warm-started callers check first)."""
        return bool(self._cleaned_mask[int(index)])

    @property
    def matrix(self) -> np.ndarray:
        """The working covariance (cleaned rows/columns zeroed).  Do not mutate.

        The dense engine holds this array anyway, so returning it is free.
        The structured engines (:mod:`repro.uncertainty.structured`) would
        have to *materialize* n x n to answer the same question, so their
        ``matrix`` is guarded by
        :data:`~repro.uncertainty.structured.DENSE_MATERIALIZATION_LIMIT`
        and raises at structured sizes instead of silently allocating
        terabytes — treat ``matrix`` as a small-n debugging aid, never as a
        hot-path input.
        """
        return self._sigma

    def submatrix(self) -> np.ndarray:
        """Working covariance restricted to the unclean objects (original order).

        In conditional mode this equals
        ``conditional_covariance(covariance, cleaned)``.
        """
        remaining = np.flatnonzero(~self._cleaned_mask)
        return self._sigma[np.ix_(remaining, remaining)]

    def set_weights(self, weights: Sequence[float]) -> None:
        """Attach (or replace) the linear functional the engine scores against."""
        w = np.array(weights, dtype=float)
        if w.shape != (self._n,):
            raise ValueError(f"weights must have shape ({self._n},), got {w.shape}")
        self._weights = w
        self._matvec = self._sigma @ w

    # ------------------------------------------------------------------ #
    # Updates and scoring
    # ------------------------------------------------------------------ #
    def condition_on(self, index: int) -> None:
        """Clean object ``index``: one rank-one downdate (O(n^2)) per call."""
        j = int(index)
        if not 0 <= j < self._n:
            raise IndexError(f"object index {j} out of range for n={self._n}")
        if self._cleaned_mask[j]:
            raise ValueError(f"object {j} is already cleaned")
        sigma = self._sigma
        pivot = float(sigma[j, j])
        column = sigma[:, j].copy()
        if self._conditional and pivot > self._pivot_floor[j]:
            kernels.outer_downdate(sigma, column, pivot)
            if self._matvec is not None:
                self._matvec -= (self._matvec[j] / pivot) * column
        elif self._matvec is not None:
            # Marginal mode (or a degenerate pivot): zeroing row/column j
            # removes its terms from the matvec.
            self._matvec -= self._weights[j] * column
        # Zero the cleaned row/column so full-index quadratic forms equal the
        # restriction to the unclean objects (the downdate leaves ~1e-17
        # rounding residue there in conditional mode).
        sigma[j, :] = 0.0
        sigma[:, j] = 0.0
        if self._matvec is not None:
            self._matvec[j] = 0.0
        self._cleaned_mask[j] = True
        self._cleaned.append(j)

    def variance(self) -> float:
        """Current variance of ``w . X`` (conditional or marginal per mode)."""
        if self._matvec is None:
            raise ValueError("variance() requires weights; call set_weights first")
        return float(self._weights @ self._matvec)

    def gains(self) -> np.ndarray:
        """Marginal variance reduction of cleaning each remaining candidate.

        One vectorized expression over all n candidates — the engine's whole
        point.  Cleaned objects (and degenerate pivots in conditional mode)
        score 0.  Marginal-mode gains may be negative when cross-covariances
        are, exactly like the scratch benefit they replace.
        """
        if self._matvec is None:
            raise ValueError("gains() requires weights; call set_weights first")
        diagonal = np.diagonal(self._sigma)
        v = self._matvec
        if self._conditional:
            return kernels.conditional_gains(v, diagonal, self._pivot_floor)
        return kernels.marginal_gains(self._weights, v, diagonal, self._cleaned_mask)

    def gain_of(self, index: int) -> float:
        """Marginal variance reduction of cleaning one candidate."""
        return float(self.gains()[int(index)])

    def copy(self) -> "ConditionalGaussian":
        """Independent copy of the engine state (for branching searches)."""
        clone = object.__new__(ConditionalGaussian)
        clone._sigma = self._sigma.copy()
        clone._n = self._n
        clone._conditional = self._conditional
        clone._cleaned = list(self._cleaned)
        clone._cleaned_mask = self._cleaned_mask.copy()
        clone._pivot_floor = self._pivot_floor.copy()
        clone._weights = None if self._weights is None else self._weights.copy()
        clone._matvec = None if self._matvec is None else self._matvec.copy()
        return clone


class GaussianWorldModel:
    """A multivariate normal model for the joint error distribution.

    Wraps a mean vector and a covariance matrix and provides the quantities
    the dependency-aware algorithms and the Theorem 3.9 analysis need:

    * variance of a linear functional ``w . X``;
    * expected post-cleaning variance of a linear functional after cleaning a
      subset (which, for a multivariate normal, is deterministic -- the
      conditional covariance does not depend on the revealed values), both as
      a scalar (scratch Schur complement) and batched over every candidate
      through the :class:`ConditionalGaussian` engine;
    * probability that a linear functional falls below a threshold after
      cleaning a subset (the MaxPr objective for linear claims), scalar and
      batched.

    ``validate=False`` skips the O(n^3) positive-semi-definiteness eigenvalue
    check — for matrices that are PSD by construction (e.g.
    :func:`decaying_covariance`) at paper scale, the check would dominate the
    model's construction cost.

    A model can alternatively be built over a compact
    :class:`~repro.uncertainty.structured.StructuredCovariance`
    (:meth:`from_structure`): ``structure`` then carries the tag the engine
    dispatch inspects, :meth:`engine` returns the matching structured engine
    (banded / block / low-rank) instead of the dense
    :class:`ConditionalGaussian`, and :attr:`covariance` materializes the
    dense matrix lazily — guarded so a stray access at n = 10^6 raises
    :class:`~repro.uncertainty.structured.StructureTooLargeError` instead of
    allocating 8 TB.
    """

    def __init__(
        self,
        means: Sequence[float],
        covariance: Optional[np.ndarray] = None,
        validate: bool = True,
        structure: Optional["StructuredCovariance"] = None,
    ):
        self.means = np.asarray(means, dtype=float)
        n = self.means.size
        if (covariance is None) == (structure is None):
            raise ValueError("provide exactly one of covariance or structure")
        #: The structure tag (a StructuredCovariance) or None for dense models.
        self.structure = structure
        if structure is not None:
            if structure.size != n:
                raise ValueError(
                    f"structure has {structure.size} components, means have {n}"
                )
            self._covariance: Optional[np.ndarray] = None
        else:
            dense = np.asarray(covariance, dtype=float)
            if dense.shape != (n, n):
                raise ValueError(f"covariance must be {n}x{n}, got {dense.shape}")
            if validate:
                if not np.allclose(dense, dense.T, atol=1e-9):
                    raise ValueError("covariance matrix must be symmetric")
                eigenvalues = np.linalg.eigvalsh(dense)
                if np.any(eigenvalues < -1e-8):
                    raise ValueError("covariance matrix must be positive semi-definite")
            self._covariance = dense
        # Sampling factor (Cholesky, or the eigen fallback for semi-definite
        # matrices), computed lazily and cached — rng.multivariate_normal
        # refactorizes the covariance on every call.
        self._sampling_factor: Optional[np.ndarray] = None

    @property
    def covariance(self) -> np.ndarray:
        """The dense covariance matrix.

        For structured models this *materializes* the dense matrix on first
        access (cached afterwards) and is guarded by
        :data:`~repro.uncertainty.structured.DENSE_MATERIALIZATION_LIMIT`:
        above it, the access raises
        :class:`~repro.uncertainty.structured.StructureTooLargeError` with
        instructions, instead of silently allocating an n x n array the
        structured representation exists to avoid.  Structure-aware callers
        should use :attr:`structure` / :meth:`engine` /
        :meth:`variance_of_linear` instead.
        """
        if self._covariance is None:
            self._covariance = self.structure.to_dense()
        return self._covariance

    @classmethod
    def independent(cls, means: Sequence[float], stds: Sequence[float]) -> "GaussianWorldModel":
        """Model with independent components (diagonal covariance)."""
        stds = np.asarray(stds, dtype=float)
        return cls(means, np.diag(stds**2))

    @classmethod
    def from_structure(
        cls, means: Sequence[float], structure: "StructuredCovariance"
    ) -> "GaussianWorldModel":
        """Model over a compact structured covariance (banded / block / low-rank).

        The structure is PSD by construction, so no O(n^3) validation runs;
        :meth:`engine` dispatches on ``structure.kind`` and the dense
        :attr:`covariance` is only materialized (guarded) on explicit access.
        """
        return cls(means, structure=structure)

    @classmethod
    def from_database(
        cls,
        database: UncertainDatabase,
        gamma: float = 0.0,
        centered_at_current: bool = True,
        validate: bool = True,
    ) -> "GaussianWorldModel":
        """Build a model from a database of normal-error objects.

        ``gamma`` injects the Section 4.5 decaying dependency; ``gamma = 0``
        keeps the errors independent.  ``centered_at_current`` centres the
        model at the current values ``u`` (Theorem 3.9's assumption); set it to
        False to centre at the per-object distribution means instead.
        """
        means = database.current_values if centered_at_current else database.means
        covariance = decaying_covariance(database.stds, gamma)
        return cls(means, covariance, validate=validate)

    @property
    def size(self) -> int:
        """Number of components of the model."""
        return int(self.means.size)

    def engine(
        self, weights: Optional[Sequence[float]] = None, conditional: bool = True
    ) -> ConditionalGaussian:
        """A fresh conditioning engine over this model's covariance.

        Structured models dispatch on their structure tag: a banded / block /
        low-rank model returns the matching structured engine (same
        ``condition_on`` / ``gains`` / ``variance`` surface, O(n * bandwidth)
        or O(block^2) or O(n r) per step), so ``GreedyDep`` and
        ``AdaptiveDep`` exploit structure without any changes.  Dense models
        keep the :class:`ConditionalGaussian` fallback unchanged; its
        covariance was validated at model construction, so the engine skips
        its own symmetry check (it takes a working copy regardless).
        """
        if self.structure is not None:
            return self.structure.engine(weights=weights, conditional=conditional)
        return ConditionalGaussian(
            self.covariance, weights=weights, conditional=conditional, validate=False
        )

    # ------------------------------------------------------------------ #
    # Linear functionals
    # ------------------------------------------------------------------ #
    def variance_of_linear(self, weights: Sequence[float]) -> float:
        """Variance of ``w . X`` (structure-aware: never materializes n x n)."""
        w = np.asarray(weights, dtype=float)
        if self.structure is not None and self._covariance is None:
            return float(w @ self.structure.matvec(w))
        return float(w @ self.covariance @ w)

    def post_cleaning_variance(self, weights: Sequence[float], cleaned: Sequence[int]) -> float:
        """Expected variance of ``w . X`` after cleaning the ``cleaned`` subset.

        Because the conditional covariance of a multivariate normal does not
        depend on the observed outcome, the expectation over cleaning outcomes
        equals the (deterministic) conditional variance, computed on the
        weights restricted to the uncleaned components.

        This is the scratch (pseudo-inverse Schur complement) reference; use
        :meth:`post_cleaning_variance_batch` or :meth:`engine` for the
        incremental path.
        """
        w = np.asarray(weights, dtype=float)
        cleaned = sorted(set(int(i) for i in cleaned))
        remaining = [i for i in range(self.size) if i not in cleaned]
        if not remaining:
            return 0.0
        conditional = conditional_covariance(self.covariance, cleaned)
        w_remaining = w[remaining]
        return float(w_remaining @ conditional @ w_remaining)

    def post_cleaning_variance_batch(
        self, weights: Sequence[float], cleaned: Sequence[int] = ()
    ) -> np.ndarray:
        """Post-cleaning variance of ``w . X`` for every candidate extension.

        Entry ``j`` is the variance after cleaning ``cleaned + {j}`` (for
        ``j`` already cleaned, the variance after ``cleaned`` alone).  Built
        on the :class:`ConditionalGaussian` engine: one rank-one downdate per
        already-cleaned object, then a single vectorized gains pass — O(kn^2)
        total instead of n Schur complements.
        """
        engine = self.engine(weights, conditional=True)
        for index in sorted(set(int(i) for i in cleaned)):
            engine.condition_on(index)
        return engine.variance() - engine.gains()

    def surprise_probability(
        self,
        weights: Sequence[float],
        cleaned: Sequence[int],
        threshold_drop: float,
        current_values: Optional[Sequence[float]] = None,
    ) -> float:
        """MaxPr objective for a linear functional under this model.

        Computes ``Pr[w . X' < w . u - tau]`` where ``X'`` keeps the current
        values for uncleaned objects and re-draws the cleaned ones from the
        (marginal, possibly correlated) model.  ``threshold_drop`` is ``tau``.
        An empty cleaned set gives probability zero (the paper's convention).
        """
        from scipy import stats

        cleaned = sorted(set(int(i) for i in cleaned))
        if not cleaned:
            return 0.0
        w = np.asarray(weights, dtype=float)
        u = np.asarray(
            self.means if current_values is None else current_values, dtype=float
        )
        w_cleaned = w[cleaned]
        sub_cov = self.covariance[np.ix_(cleaned, cleaned)]
        variance = float(w_cleaned @ sub_cov @ w_cleaned)
        # Shift of the mean relative to the "all current values" baseline.
        mean_shift = float(w_cleaned @ (self.means[cleaned] - u[cleaned]))
        if variance <= 0.0:
            return 1.0 if mean_shift < -threshold_drop else 0.0
        return float(stats.norm.cdf((-threshold_drop - mean_shift) / np.sqrt(variance)))

    def surprise_probability_batch(
        self,
        weights: Sequence[float],
        cleaned: Sequence[int],
        threshold_drop: float,
        current_values: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Surprise probability for every candidate extension, vectorized.

        Entry ``j`` is :meth:`surprise_probability` of ``cleaned + {j}`` (for
        ``j`` already cleaned, of ``cleaned`` alone).  The quadratic form over
        ``S + {j}`` decomposes as ``var_S + 2 w_j (Sigma[:, S] w_S)_j +
        w_j^2 Sigma_jj``, so one matrix-vector product scores all candidates —
        the correlated analogue of the PR 3 singleton surprise kernel.
        Degenerate variances fall back to the scratch path's indicator.
        """
        from scipy import stats

        w = np.asarray(weights, dtype=float)
        u = np.asarray(
            self.means if current_values is None else current_values, dtype=float
        )
        shifts_all = w * (self.means - u)
        diagonal = np.diagonal(self.covariance)
        cleaned = sorted(set(int(i) for i in cleaned))
        if cleaned:
            w_cleaned = w[cleaned]
            base_variance = float(
                w_cleaned @ self.covariance[np.ix_(cleaned, cleaned)] @ w_cleaned
            )
            base_shift = float(shifts_all[cleaned].sum())
            cross = self.covariance[:, cleaned] @ w_cleaned
        else:
            base_variance = 0.0
            base_shift = 0.0
            cross = np.zeros(self.size, dtype=float)
        variances = base_variance + 2.0 * w * cross + (w * w) * diagonal
        shifts = base_shift + shifts_all
        if cleaned:
            variances[cleaned] = base_variance
            shifts[cleaned] = base_shift
        # The surprise kernel's degenerate convention (sd <= 0 -> indicator)
        # matches the scalar path, so clamping dead variances to sd = 0 and
        # making one batched call covers both branches.
        sds = np.sqrt(np.where(variances > 0.0, variances, 0.0))
        return kernels.normal_surprise_scores(shifts, sds, threshold_drop)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _factor(self) -> np.ndarray:
        """Cached sampling factor ``L`` with ``L L^T = covariance``.

        Cholesky when the matrix is positive definite; for semi-definite
        matrices (perfectly correlated or zero-variance components) the
        pseudo-inverse-style eigen fallback clips tiny negative eigenvalues
        to zero and uses ``V sqrt(diag(lambda))``.
        """
        if self._sampling_factor is None:
            try:
                self._sampling_factor = np.linalg.cholesky(self.covariance)
            except np.linalg.LinAlgError:
                eigenvalues, eigenvectors = np.linalg.eigh(self.covariance)
                eigenvalues = np.clip(eigenvalues, 0.0, None)
                self._sampling_factor = eigenvectors * np.sqrt(eigenvalues)
        return self._sampling_factor

    def sample(self, rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
        """Draw worlds from the multivariate normal.

        Uses the cached factor (one factorization per model, computed on the
        first draw) instead of ``rng.multivariate_normal``, which refactorizes
        the covariance on every call.
        """
        factor = self._factor()
        shape = (self.size,) if size is None else (int(size), self.size)
        return self.means + rng.standard_normal(shape) @ factor.T
