"""Structured covariance representations and their sublinear conditioning engines.

The dense :class:`~repro.uncertainty.correlation.ConditionalGaussian` pays
O(n^2) memory and O(n^2) per rank-one downdate, which caps the dependency
track at a few thousand objects.  The covariances the workload generators
actually produce are far from generic, though: banded (moving-average
shocks), block-diagonal (batched acquisition) or diagonal-plus-low-rank
(a few shared latent factors).  This module stores those structures
explicitly and conditions *inside* the structure:

========================  =======================  ====================  ==================
structure                 storage                  per-step downdate     memory
========================  =======================  ====================  ==================
:class:`BandedCovariance`        band vectors      O(bandwidth^2)        O(n * bandwidth)
:class:`BlockDiagonalCovariance` per-block dense   O(block^2)            O(n * block)
:class:`LowRankCovariance`       ``D + U M U^T``   O(n r + r^2)          O(n r + r^2)
dense ``ConditionalGaussian``    full matrix       O(n^2)                O(n^2)
========================  =======================  ====================  ==================

Each structure exposes ``engine(weights, conditional)`` returning an object
with the exact :class:`ConditionalGaussian` surface — ``condition_on`` /
``gains`` / ``variance`` / ``copy`` — so ``GreedyDep`` and ``AdaptiveDep``
run unchanged on top; :meth:`GaussianWorldModel.from_structure
<repro.uncertainty.correlation.GaussianWorldModel.from_structure>` is the
dispatch point.  The engines reproduce the dense engine's arithmetic (same
rank-one downdate, same per-component pivot floors), so selections and
per-step gains agree with the dense path to rounding at small n — the
equivalence the test suite pins at ``atol=1e-9``.

Two structure-specific notes:

* **Banded fill-in.**  Conditioning on component ``j`` downdates the whole
  window ``[j-b, j+b]^2``, which contains lags up to ``2b`` — a banded
  matrix is *not* closed under conditioning.  The band storage therefore
  widens on demand (extra zero band rows are appended when a downdate needs
  a larger lag), staying exact under arbitrary growth.  Fill spreads only
  through chains of overlapping cleaned windows; greedy's diminishing
  returns spreads its picks out, so the effective bandwidth stays small in
  practice — the scale benchmark records and asserts it.
* **Low-rank Woodbury.**  For ``Sigma = D + U M U^T`` the rank-one downdate
  by column ``j`` maps the r x r capacity matrix ``M`` to
  ``M - (M u_j)(M u_j)^T / pivot`` (the Woodbury-style update), leaving
  ``D`` and ``U`` untouched apart from zeroing row ``j`` — O(n r + r^2)
  per step, never materializing an n x n array.

Dense materialization (``to_dense`` / an engine's ``matrix``) is guarded by
:data:`DENSE_MATERIALIZATION_LIMIT`: above it, a stray debugging call raises
:class:`StructureTooLargeError` instead of silently allocating terabytes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels

__all__ = [
    "DENSE_MATERIALIZATION_LIMIT",
    "StructureTooLargeError",
    "StructuredCovariance",
    "BandedCovariance",
    "BlockDiagonalCovariance",
    "LowRankCovariance",
    "BandedConditionalGaussian",
    "BlockConditionalGaussian",
    "LowRankConditionalGaussian",
]

#: Largest n for which ``to_dense`` / ``matrix`` will materialize an n x n
#: array (128 MB of float64).  Above it they raise
#: :class:`StructureTooLargeError` — at n = 10^6 a dense covariance would be
#: 8 TB, and no structured code path ever needs it.
DENSE_MATERIALIZATION_LIMIT = 4096

#: Relative pivot noise floor — same value as
#: ``ConditionalGaussian._PIVOT_RTOL`` (kept in sync by a test) so the
#: structured engines branch to the degenerate-pivot path at exactly the
#: same threshold as the dense engine.
_PIVOT_RTOL = 16.0 * np.finfo(float).eps


class StructureTooLargeError(MemoryError):
    """Raised when a dense n x n materialization was requested at structured sizes."""


def _check_dense_ok(n: int, what: str, force: bool) -> None:
    if not force and n > DENSE_MATERIALIZATION_LIMIT:
        raise StructureTooLargeError(
            f"{what} would materialize a dense {n}x{n} array "
            f"({n * n * 8 / 1e9:.1f} GB); the structured representation exists "
            f"precisely to avoid that.  Pass force=True (or work below "
            f"n={DENSE_MATERIALIZATION_LIMIT}) if you really want the dense matrix."
        )


# --------------------------------------------------------------------------- #
# Structure representations
# --------------------------------------------------------------------------- #
class StructuredCovariance:
    """Base class for compact covariance representations.

    Subclasses store one structure class compactly and provide the pristine
    (pre-conditioning) linear algebra the world model needs — ``diagonal``,
    ``matvec`` — plus ``engine(...)`` returning the structure's conditioning
    engine.  ``kind`` is the structure tag
    :meth:`GaussianWorldModel.from_structure` dispatches on.
    """

    kind: str = "structured"

    @property
    def size(self) -> int:
        """Number of objects ``n`` the covariance spans."""
        raise NotImplementedError

    def diagonal(self) -> np.ndarray:
        """The variance vector ``diag(Sigma)`` (a fresh array)."""
        raise NotImplementedError

    def matvec(self, vector: Sequence[float]) -> np.ndarray:
        """``Sigma @ vector`` without materializing ``Sigma``."""
        raise NotImplementedError

    def to_dense(self, force: bool = False) -> np.ndarray:
        """The dense matrix (guarded by :data:`DENSE_MATERIALIZATION_LIMIT`)."""
        raise NotImplementedError

    def engine(
        self,
        weights: Optional[Sequence[float]] = None,
        conditional: bool = True,
    ):
        """A fresh conditioning engine over this structure."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Bytes of numeric storage the representation holds."""
        raise NotImplementedError

    def _validated_vector(self, values: Sequence[float], name: str) -> np.ndarray:
        array = np.asarray(values, dtype=float)
        if array.shape != (self.size,):
            raise ValueError(f"{name} must have shape ({self.size},), got {array.shape}")
        return array


class BandedCovariance(StructuredCovariance):
    """A symmetric banded covariance stored as per-lag band vectors.

    ``bands[d, i] = Sigma[i, i + d]`` for lags ``d = 0..bandwidth`` (entries
    past the matrix edge are zero).  O(n * bandwidth) memory instead of
    O(n^2); :meth:`from_moving_average` builds the same PSD moving-average
    construction as :func:`~repro.uncertainty.correlation.banded_covariance`
    without ever forming the dense matrix.
    """

    kind = "banded"

    def __init__(self, bands: np.ndarray):
        bands = np.array(bands, dtype=float)
        if bands.ndim != 2 or bands.shape[0] < 1:
            raise ValueError(
                f"bands must be a (bandwidth + 1, n) array, got shape {bands.shape}"
            )
        n = bands.shape[1]
        if bands.shape[0] > n:
            raise ValueError(
                f"bandwidth {bands.shape[0] - 1} must be smaller than n={n}"
            )
        # Entries past the matrix edge (Sigma[i, i+d] with i+d >= n) must be 0.
        for d in range(1, bands.shape[0]):
            if d and np.any(bands[d, n - d :] != 0.0):
                raise ValueError(f"band {d} has nonzero entries past the matrix edge")
        if np.any(bands[0] < 0.0):
            raise ValueError("the diagonal band must be nonnegative (variances)")
        self._bands = bands

    @classmethod
    def from_moving_average(
        cls, stds: Sequence[float], bandwidth: int, rho: float = 1.0
    ) -> "BandedCovariance":
        """Band-storage twin of :func:`banded_covariance` (same values, O(n*b) memory).

        Each error is a one-sided moving average of the ``bandwidth + 1`` most
        recent i.i.d. shocks damped by ``rho`` per lag, so
        ``corr[i+L, i] = rho^L * sum_{s=0..min(i, b-L)} rho^(2s)`` before
        normalization — computed per band instead of via the dense
        ``A A^T``.  Zero-``std`` components are allowed: they contribute a
        zero row/column and condition as degenerate pivots, exactly like the
        dense path.
        """
        stds = np.asarray(stds, dtype=float)
        n = stds.size
        if n < 1:
            raise ValueError("need at least one component")
        if bandwidth < 0:
            raise ValueError("bandwidth must be nonnegative")
        if bandwidth >= n:
            raise ValueError(
                f"bandwidth {bandwidth} must be smaller than n={n} "
                "(a full-width band is a dense matrix, not a banded one)"
            )
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if np.any(stds < 0):
            raise ValueError("standard deviations must be nonnegative")
        # Unnormalized correlation per lag: G[L, i] = rho^L * cum[min(i, b-L)]
        # where cum[s] = 1 + rho^2 + ... + rho^(2s).
        cum = np.cumsum(rho ** (2.0 * np.arange(bandwidth + 1)))
        positions = np.arange(n)
        g0 = cum[np.minimum(positions, bandwidth)]
        norms = np.sqrt(g0)
        bands = np.zeros((bandwidth + 1, n), dtype=float)
        bands[0] = stds * stds  # diag normalizes to exactly stds^2
        for lag in range(1, bandwidth + 1):
            i = positions[: n - lag]
            g = (rho**lag) * cum[np.minimum(i, bandwidth - lag)]
            bands[lag, : n - lag] = (
                g / (norms[i] * norms[i + lag]) * stds[i] * stds[i + lag]
            )
        return cls(bands)

    @property
    def size(self) -> int:
        """Number of objects ``n`` the covariance spans."""
        return int(self._bands.shape[1])

    @property
    def bandwidth(self) -> int:
        """Largest stored lag ``b`` (entries beyond ``|i-j| > b`` are zero)."""
        return int(self._bands.shape[0] - 1)

    @property
    def bands(self) -> np.ndarray:
        """The band storage (do not mutate)."""
        return self._bands

    def diagonal(self) -> np.ndarray:
        return self._bands[0].copy()

    def matvec(self, vector: Sequence[float]) -> np.ndarray:
        w = self._validated_vector(vector, "vector")
        return _band_matvec(self._bands, w)

    def to_dense(self, force: bool = False) -> np.ndarray:
        _check_dense_ok(self.size, "BandedCovariance.to_dense", force)
        return _band_to_dense(self._bands)

    def engine(
        self, weights: Optional[Sequence[float]] = None, conditional: bool = True
    ) -> "BandedConditionalGaussian":
        return BandedConditionalGaussian(self, weights=weights, conditional=conditional)

    @property
    def nbytes(self) -> int:
        """Bytes of band storage: ``(bandwidth + 1) * n`` floats."""
        return int(self._bands.nbytes)


class BlockDiagonalCovariance(StructuredCovariance):
    """A block-diagonal covariance stored as per-block dense matrices.

    Blocks cover consecutive index ranges; cross-block covariances are zero,
    so conditioning never leaves a block — O(block^2) per step instead of
    O(n^2).  :meth:`from_equicorrelated` builds the batched-acquisition
    model of :func:`~repro.uncertainty.correlation.block_covariance`.
    """

    kind = "block"

    def __init__(self, blocks: Sequence[np.ndarray]):
        mats: List[np.ndarray] = []
        for b, block in enumerate(blocks):
            mat = np.array(block, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
                raise ValueError(f"block {b} must be a square matrix, got {mat.shape}")
            mats.append(mat)
        if not mats:
            raise ValueError("need at least one block")
        self._blocks = mats
        sizes = np.array([m.shape[0] for m in mats], dtype=np.intp)
        self._starts = np.concatenate([[0], np.cumsum(sizes)])
        self._n = int(self._starts[-1])
        # index -> owning block, so condition_on is O(1) to locate.
        self._block_of = np.repeat(np.arange(len(mats), dtype=np.intp), sizes)

    @classmethod
    def from_equicorrelated(
        cls, stds: Sequence[float], block_size: int, rho: float
    ) -> "BlockDiagonalCovariance":
        """Block-storage twin of :func:`block_covariance` (same values).

        Consecutive blocks of ``block_size`` with constant within-block
        correlation ``rho`` (the last block may be shorter).  ``block_size``
        must fit the database (at most n) and single-object blocks with
        ``rho > 0`` are rejected — there is no off-diagonal for ``rho`` to
        apply to, so the parameter would be silently dead.
        """
        stds = np.asarray(stds, dtype=float)
        n = stds.size
        if n < 1:
            raise ValueError("need at least one component")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if block_size > n:
            raise ValueError(
                f"block_size {block_size} exceeds n={n}; "
                "a single all-covering block is equicorrelated, not block-diagonal"
            )
        if block_size == 1 and rho != 0.0:
            raise ValueError(
                "block_size=1 with rho != 0 is degenerate: single-object blocks "
                "have no off-diagonal entries, so rho would be silently ignored"
            )
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if np.any(stds < 0):
            raise ValueError("standard deviations must be nonnegative")
        blocks = []
        for start in range(0, n, block_size):
            part = stds[start : start + block_size]
            m = part.size
            correlation = np.full((m, m), rho)
            np.fill_diagonal(correlation, 1.0)
            blocks.append(correlation * np.outer(part, part))
        return cls(blocks)

    @property
    def size(self) -> int:
        """Number of objects ``n`` the covariance spans."""
        return self._n

    @property
    def block_sizes(self) -> List[int]:
        """Per-block object counts, in positional order."""
        return [int(m.shape[0]) for m in self._blocks]

    @property
    def blocks(self) -> List[np.ndarray]:
        """The per-block matrices (do not mutate)."""
        return list(self._blocks)

    def diagonal(self) -> np.ndarray:
        return np.concatenate([np.diagonal(m) for m in self._blocks])

    def matvec(self, vector: Sequence[float]) -> np.ndarray:
        w = self._validated_vector(vector, "vector")
        out = np.empty(self._n, dtype=float)
        for b, mat in enumerate(self._blocks):
            lo, hi = self._starts[b], self._starts[b + 1]
            out[lo:hi] = mat @ w[lo:hi]
        return out

    def to_dense(self, force: bool = False) -> np.ndarray:
        _check_dense_ok(self.size, "BlockDiagonalCovariance.to_dense", force)
        dense = np.zeros((self._n, self._n), dtype=float)
        for b, mat in enumerate(self._blocks):
            lo, hi = self._starts[b], self._starts[b + 1]
            dense[lo:hi, lo:hi] = mat
        return dense

    def engine(
        self, weights: Optional[Sequence[float]] = None, conditional: bool = True
    ) -> "BlockConditionalGaussian":
        return BlockConditionalGaussian(self, weights=weights, conditional=conditional)

    @property
    def nbytes(self) -> int:
        """Bytes of per-block dense storage: ``sum(block_size**2)`` floats."""
        return int(sum(m.nbytes for m in self._blocks))


class LowRankCovariance(StructuredCovariance):
    """A diagonal-plus-low-rank covariance ``Sigma = diag(d) + U M U^T``.

    ``U`` is n x r (r latent factors), ``M`` the r x r capacity matrix
    (identity unless given).  Conditioning downdates only ``M`` (Woodbury),
    so memory stays O(n r + r^2).  Models a few shared systematic error
    sources on top of independent per-object noise.
    """

    kind = "low_rank"

    def __init__(
        self,
        diag: Sequence[float],
        factor: np.ndarray,
        capacity: Optional[np.ndarray] = None,
    ):
        d = np.asarray(diag, dtype=float)
        U = np.array(factor, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diag must be a nonempty vector")
        if np.any(d < 0):
            raise ValueError("diag entries are variances and must be nonnegative")
        if U.ndim != 2 or U.shape[0] != d.size:
            raise ValueError(
                f"factor must have shape ({d.size}, r), got {U.shape}"
            )
        if U.shape[1] > d.size:
            raise ValueError(
                f"rank {U.shape[1]} exceeds n={d.size}; use the dense engine instead"
            )
        r = U.shape[1]
        if capacity is None:
            M = np.eye(r)
        else:
            M = np.array(capacity, dtype=float)
            if M.shape != (r, r):
                raise ValueError(f"capacity must be {r}x{r}, got {M.shape}")
            if not np.allclose(M, M.T, atol=1e-9):
                raise ValueError("capacity matrix must be symmetric")
        self._d = d
        self._U = U
        self._M = M

    @property
    def size(self) -> int:
        """Number of objects ``n`` the covariance spans."""
        return int(self._d.size)

    @property
    def rank(self) -> int:
        """Number of latent factors ``r`` (columns of ``U``)."""
        return int(self._U.shape[1])

    def diagonal(self) -> np.ndarray:
        return self._d + np.einsum("ij,jk,ik->i", self._U, self._M, self._U)

    def matvec(self, vector: Sequence[float]) -> np.ndarray:
        w = self._validated_vector(vector, "vector")
        return self._d * w + self._U @ (self._M @ (self._U.T @ w))

    def to_dense(self, force: bool = False) -> np.ndarray:
        _check_dense_ok(self.size, "LowRankCovariance.to_dense", force)
        return np.diag(self._d) + self._U @ self._M @ self._U.T

    def engine(
        self, weights: Optional[Sequence[float]] = None, conditional: bool = True
    ) -> "LowRankConditionalGaussian":
        return LowRankConditionalGaussian(self, weights=weights, conditional=conditional)

    @property
    def nbytes(self) -> int:
        """Bytes of storage: ``n + n*r + r*r`` floats."""
        return int(self._d.nbytes + self._U.nbytes + self._M.nbytes)


# --------------------------------------------------------------------------- #
# Band helpers (shared by the representation and its engine)
# --------------------------------------------------------------------------- #
def _band_matvec(bands: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``Sigma @ w`` from band storage, O(n * bandwidth)."""
    n = bands.shape[1]
    v = bands[0] * w
    for lag in range(1, bands.shape[0]):
        band = bands[lag, : n - lag]
        v[: n - lag] += band * w[lag:]
        v[lag:] += band * w[: n - lag]
    return v


def _band_to_dense(bands: np.ndarray) -> np.ndarray:
    n = bands.shape[1]
    dense = np.zeros((n, n), dtype=float)
    dense[np.arange(n), np.arange(n)] = bands[0]
    for lag in range(1, bands.shape[0]):
        i = np.arange(n - lag)
        dense[i, i + lag] = bands[lag, : n - lag]
        dense[i + lag, i] = bands[lag, : n - lag]
    return dense


# --------------------------------------------------------------------------- #
# Conditioning engines
# --------------------------------------------------------------------------- #
class _StructuredConditionalBase:
    """Shared scaffolding for the structured conditioning engines.

    Mirrors :class:`~repro.uncertainty.correlation.ConditionalGaussian`
    exactly: same two update modes (``conditional`` Schur downdate vs
    marginal row/column zeroing), same per-component pivot floors
    (``16 ulp`` of each component's *original* variance), same vectorized
    ``gains`` formulas over an incrementally maintained diagonal and matvec.
    Subclasses provide the structure-specific column extraction and storage
    downdate; everything a caller touches lives here.
    """

    def __init__(
        self,
        size: int,
        diagonal: np.ndarray,
        weights: Optional[Sequence[float]],
        conditional: bool,
    ):
        self._n = int(size)
        self._conditional = bool(conditional)
        self._cleaned: List[int] = []
        self._cleaned_mask = np.zeros(self._n, dtype=bool)
        self._diag = np.array(diagonal, dtype=float)
        # Same relative floor as the dense engine.
        self._pivot_floor = np.abs(self._diag) * _PIVOT_RTOL
        self._weights: Optional[np.ndarray] = None
        self._matvec: Optional[np.ndarray] = None
        if weights is not None:
            self.set_weights(weights)

    # -- state ---------------------------------------------------------- #
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
        """The working covariance, reconstructed dense — guarded at structured sizes.

        Unlike the dense engine (whose ``matrix`` is a view of state it holds
        anyway), a structured engine must *materialize* n x n to answer this;
        above :data:`DENSE_MATERIALIZATION_LIMIT` it raises
        :class:`StructureTooLargeError` instead of allocating terabytes.
        Debugging aid only — never called on a hot path.
        """
        _check_dense_ok(self._n, f"{type(self).__name__}.matrix", force=False)
        return self._dense_working_matrix()

    def submatrix(self) -> np.ndarray:
        """Working covariance restricted to the unclean objects (guarded like ``matrix``)."""
        remaining = np.flatnonzero(~self._cleaned_mask)
        return self.matrix[np.ix_(remaining, remaining)]

    def set_weights(self, weights: Sequence[float]) -> None:
        """Attach (or replace) the linear functional the engine scores against."""
        w = np.array(weights, dtype=float)
        if w.shape != (self._n,):
            raise ValueError(f"weights must have shape ({self._n},), got {w.shape}")
        self._weights = w
        self._matvec = self._current_matvec(w)

    # -- updates and scoring -------------------------------------------- #
    def condition_on(self, index: int) -> None:
        """Clean object ``index``: one structure-local downdate per call."""
        j = int(index)
        if not 0 <= j < self._n:
            raise IndexError(f"object index {j} out of range for n={self._n}")
        if self._cleaned_mask[j]:
            raise ValueError(f"object {j} is already cleaned")
        pivot = float(self._diag[j])
        lo, column = self._column_window(j)
        hi = lo + column.size
        if self._conditional and pivot > self._pivot_floor[j]:
            self._downdate(j, pivot, lo, column)
            self._diag[lo:hi] -= (column * column) / pivot
            if self._matvec is not None:
                self._matvec[lo:hi] -= (self._matvec[j] / pivot) * column
        elif self._matvec is not None:
            # Marginal mode (or a degenerate pivot): zeroing row/column j
            # removes its terms from the matvec.
            self._matvec[lo:hi] -= self._weights[j] * column
        self._zero_index(j)
        self._diag[j] = 0.0
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

        Identical formulas to the dense engine — ``v^2 / diag`` in
        conditional mode (degenerate pivots score 0), ``2 w v - w^2 diag``
        in marginal mode — over the incrementally maintained diagonal.
        """
        if self._matvec is None:
            raise ValueError("gains() requires weights; call set_weights first")
        diagonal = self._diag
        v = self._matvec
        if self._conditional:
            return kernels.conditional_gains(v, diagonal, self._pivot_floor)
        return kernels.marginal_gains(self._weights, v, diagonal, self._cleaned_mask)

    def gain_of(self, index: int) -> float:
        """Marginal variance reduction of cleaning one candidate."""
        return float(self.gains()[int(index)])

    def copy(self):
        """Independent copy of the engine state (cheap: copies the structure, not n x n)."""
        clone = object.__new__(type(self))
        clone._n = self._n
        clone._conditional = self._conditional
        clone._cleaned = list(self._cleaned)
        clone._cleaned_mask = self._cleaned_mask.copy()
        clone._diag = self._diag.copy()
        clone._pivot_floor = self._pivot_floor.copy()
        clone._weights = None if self._weights is None else self._weights.copy()
        clone._matvec = None if self._matvec is None else self._matvec.copy()
        self._copy_storage_into(clone)
        return clone

    # -- subclass hooks -------------------------------------------------- #
    def _column_window(self, j: int) -> Tuple[int, np.ndarray]:
        """``(lo, column)``: the nonzero window ``Sigma|S[lo:lo+len, j]``."""
        raise NotImplementedError

    def _downdate(self, j: int, pivot: float, lo: int, column: np.ndarray) -> None:
        """Apply ``Sigma -= column column^T / pivot`` to the structure storage."""
        raise NotImplementedError

    def _zero_index(self, j: int) -> None:
        """Zero row/column ``j`` in the structure storage."""
        raise NotImplementedError

    def _current_matvec(self, w: np.ndarray) -> np.ndarray:
        """``Sigma|S @ w`` from the current storage."""
        raise NotImplementedError

    def _dense_working_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def _copy_storage_into(self, clone) -> None:
        raise NotImplementedError


class BandedConditionalGaussian(_StructuredConditionalBase):
    """Banded engine: O(bandwidth^2) per downdate, O(n * bandwidth) memory.

    Conditioning fills lags up to twice the current bandwidth inside the
    cleaned window, so the band storage widens on demand (appending zero
    band rows) and :attr:`bandwidth` reports the current effective width —
    the quantity the scale benchmark asserts stays small.
    """

    def __init__(
        self,
        structure: BandedCovariance,
        weights: Optional[Sequence[float]] = None,
        conditional: bool = True,
    ):
        self._bands = structure.bands.copy()
        super().__init__(structure.size, structure.bands[0], weights, conditional)

    @property
    def bandwidth(self) -> int:
        """Current effective bandwidth (grows under conditional fill-in)."""
        return int(self._bands.shape[0] - 1)

    @property
    def storage_nbytes(self) -> int:
        """Bytes held by the band storage right now."""
        return int(self._bands.nbytes)

    def _column_window(self, j: int) -> Tuple[int, np.ndarray]:
        width = self._bands.shape[0] - 1
        lo = max(0, j - width)
        hi = min(self._n, j + width + 1)
        column = np.empty(hi - lo, dtype=self._bands.dtype)
        left = np.arange(lo, j + 1)
        column[: left.size] = self._bands[j - left, left]
        right = np.arange(j + 1, hi)
        column[left.size :] = self._bands[right - j, j]
        # Trim to the nonzero support: the storage bandwidth is a global
        # upper bound, but most columns only occupy their original band.
        # Without the trim every conditional downdate would widen the
        # storage to twice the *storage* width (not the column's actual
        # width), doubling the band per step until it hits n.  Trimming
        # keeps the downdate window — and therefore the fill-in and the
        # storage growth — proportional to the column's true extent.
        nonzero = np.flatnonzero(column)
        if nonzero.size == 0:
            # Fully zeroed neighborhood (e.g. a zero-variance component):
            # keep just the pivot position so the shared updates are no-ops.
            return j, column[j - lo : j - lo + 1]
        first, last = int(nonzero[0]), int(nonzero[-1])
        return lo + first, column[first : last + 1]

    def _downdate(self, j: int, pivot: float, lo: int, column: np.ndarray) -> None:
        m = column.size
        if self._bands.shape[0] < m:
            # Fill-in needs lags up to m - 1: widen the band storage.
            grow = min(m, self._n) - self._bands.shape[0]
            self._bands = np.vstack(
                [self._bands, np.zeros((grow, self._n), dtype=self._bands.dtype)]
            )
        # Entries (lo + i, lo + i + lag) for i = 0..m-1-lag, every lag.
        kernels.banded_downdate(self._bands, lo, column, pivot)

    def _zero_index(self, j: int) -> None:
        self._bands[:, j] = 0.0  # Sigma[j, j + d]
        d = np.arange(1, min(self._bands.shape[0], j + 1))
        self._bands[d, j - d] = 0.0  # Sigma[j - d, j]

    def _current_matvec(self, w: np.ndarray) -> np.ndarray:
        return _band_matvec(self._bands, w)

    def _dense_working_matrix(self) -> np.ndarray:
        return _band_to_dense(self._bands)

    def _copy_storage_into(self, clone: "BandedConditionalGaussian") -> None:
        clone._bands = self._bands.copy()


class BlockConditionalGaussian(_StructuredConditionalBase):
    """Block-diagonal engine: conditioning never leaves the block, O(block^2) per step."""

    def __init__(
        self,
        structure: BlockDiagonalCovariance,
        weights: Optional[Sequence[float]] = None,
        conditional: bool = True,
    ):
        self._blocks = [m.copy() for m in structure.blocks]
        self._starts = structure._starts
        self._block_of = structure._block_of
        super().__init__(structure.size, structure.diagonal(), weights, conditional)

    def _locate(self, j: int) -> Tuple[int, int]:
        b = int(self._block_of[j])
        return b, int(self._starts[b])

    def _column_window(self, j: int) -> Tuple[int, np.ndarray]:
        b, lo = self._locate(j)
        return lo, self._blocks[b][:, j - lo].copy()

    def _downdate(self, j: int, pivot: float, lo: int, column: np.ndarray) -> None:
        b, _ = self._locate(j)
        kernels.outer_downdate(self._blocks[b], column, pivot)

    def _zero_index(self, j: int) -> None:
        b, lo = self._locate(j)
        self._blocks[b][j - lo, :] = 0.0
        self._blocks[b][:, j - lo] = 0.0

    def _current_matvec(self, w: np.ndarray) -> np.ndarray:
        out = np.empty(self._n, dtype=float)
        for b, mat in enumerate(self._blocks):
            lo, hi = self._starts[b], self._starts[b + 1]
            out[lo:hi] = mat @ w[lo:hi]
        return out

    def _dense_working_matrix(self) -> np.ndarray:
        dense = np.zeros((self._n, self._n), dtype=float)
        for b, mat in enumerate(self._blocks):
            lo, hi = self._starts[b], self._starts[b + 1]
            dense[lo:hi, lo:hi] = mat
        return dense

    def _copy_storage_into(self, clone: "BlockConditionalGaussian") -> None:
        clone._blocks = [m.copy() for m in self._blocks]
        clone._starts = self._starts
        clone._block_of = self._block_of


class LowRankConditionalGaussian(_StructuredConditionalBase):
    """Low-rank engine: Woodbury downdate of the r x r capacity matrix.

    State is ``Sigma|S = diag(d) + U M U^T`` with cleaned rows of ``U`` (and
    entries of ``d``) zeroed.  Conditioning on ``j`` with column
    ``c = d_j e_j + U (M u_j^T)`` updates only
    ``M <- M - (M u_j^T)(u_j M) / pivot`` — the parts of ``c c^T / pivot``
    involving ``e_j`` vanish when row/column ``j`` is zeroed afterwards, so
    the representation stays exact.  O(n r + r^2) per step.
    """

    def __init__(
        self,
        structure: LowRankCovariance,
        weights: Optional[Sequence[float]] = None,
        conditional: bool = True,
    ):
        self._d = structure._d.copy()
        self._U = structure._U.copy()
        self._M = structure._M.copy()
        super().__init__(structure.size, structure.diagonal(), weights, conditional)

    @property
    def rank(self) -> int:
        """Number of latent factors ``r`` (columns of ``U``)."""
        return int(self._U.shape[1])

    def _column_window(self, j: int) -> Tuple[int, np.ndarray]:
        column = self._U @ (self._M @ self._U[j])
        column[j] += self._d[j]
        return 0, column

    def _downdate(self, j: int, pivot: float, lo: int, column: np.ndarray) -> None:
        mu = self._M @ self._U[j]
        self._M -= np.outer(mu, mu) / pivot

    def _zero_index(self, j: int) -> None:
        self._U[j, :] = 0.0
        self._d[j] = 0.0

    def _current_matvec(self, w: np.ndarray) -> np.ndarray:
        return self._d * w + self._U @ (self._M @ (self._U.T @ w))

    def _dense_working_matrix(self) -> np.ndarray:
        return np.diag(self._d) + self._U @ self._M @ self._U.T

    def _copy_storage_into(self, clone: "LowRankConditionalGaussian") -> None:
        clone._d = self._d.copy()
        clone._U = self._U.copy()
        clone._M = self._M.copy()
