"""The C source of the cffi compiled-kernel backend.

One translation unit, generated in two precisions from the same template:
the ``double`` text below is the reference, and the ``float`` variant is
derived mechanically (``double`` -> ``float``, ``_f64`` -> ``_f32``,
``erfc`` -> ``erfcf``) so the two can never drift apart.  The kernels mirror
the numpy implementations expression for expression — same association of
divisions and products — so float64 results agree with the numpy tier to a
few ulps (the equivalence tests pin ``atol=1e-9``).

The functions take raw pointers plus explicit lengths (cffi ABI mode; the
dispatch layer guarantees C-contiguous arrays of the right dtype) and write
results in place or into caller-allocated output buffers — no allocation
happens on the C side, so there is nothing to free and no ownership to
track across the FFI boundary.
"""

from __future__ import annotations

__all__ = ["C_SOURCE", "C_DECLARATIONS"]

# cffi cdef declarations (both precisions), kept in lockstep with the
# definitions below.
C_DECLARATIONS = """
void outer_downdate_f64(double *matrix, const double *column, double pivot,
                        long long n);
void banded_downdate_f64(double *bands, long long n_bands, long long n,
                         long long lo, const double *column, long long m,
                         double pivot);
void normal_surprise_f64(const double *shifts, const double *sds, double tau,
                         double *out, long long n);

void outer_downdate_f32(float *matrix, const float *column, float pivot,
                        long long n);
void banded_downdate_f32(float *bands, long long n_bands, long long n,
                         long long lo, const float *column, long long m,
                         float pivot);
void normal_surprise_f32(const float *shifts, const float *sds, float tau,
                         float *out, long long n);
"""

_TEMPLATE = r"""
/* Rank-one downdate of a dense symmetric matrix:
 *   matrix -= outer(column, column) / pivot
 * computed as (column[i] / pivot) * column[k] per entry, matching the
 * numpy tier's `outer(column, column) / pivot` to a few ulps.  Rows whose
 * column entry is exactly zero (already-cleaned components) are skipped:
 * the subtraction would be a no-op anyway.
 */
void outer_downdate_f64(double *matrix, const double *column, double pivot,
                        long long n) {
    long long i, k;
    for (i = 0; i < n; i++) {
        double ci = column[i] / pivot;
        double *row = matrix + (size_t)i * (size_t)n;
        if (ci == (double)0.0) continue;
        for (k = 0; k < n; k++) {
            row[k] -= ci * column[k];
        }
    }
}

/* Banded rank-one downdate on band storage `bands` of shape (n_bands, n):
 * entries (lo + i, lo + i + lag) for lag = 0..m-1, i = 0..m-1-lag get
 *   bands[lag, lo + i] -= (column[i] / pivot) * column[i + lag]
 * — the same per-lag expression the numpy tier applies with slices.  The
 * caller has already widened the storage so n_bands >= min(m, n).
 */
void banded_downdate_f64(double *bands, long long n_bands, long long n,
                         long long lo, const double *column, long long m,
                         double pivot) {
    long long lag, i;
    long long max_lag = m < n_bands ? m : n_bands;
    for (lag = 0; lag < max_lag; lag++) {
        double *band = bands + (size_t)lag * (size_t)n + (size_t)lo;
        long long len = m - lag;
        for (i = 0; i < len; i++) {
            band[i] -= (column[i] / pivot) * column[i + lag];
        }
    }
}

/* Batched singleton surprise: Phi((-tau - shift) / sd) per component, with
 * the degenerate (sd <= 0) convention `1 if shift < -tau else 0` shared by
 * the scalar calculators.  Phi(z) = erfc(-z / sqrt(2)) / 2.
 */
void normal_surprise_f64(const double *shifts, const double *sds, double tau,
                         double *out, long long n) {
    const double inv_sqrt2 = (double)0.7071067811865475244008443621;
    long long i;
    for (i = 0; i < n; i++) {
        double sd = sds[i];
        if (sd <= (double)0.0) {
            out[i] = shifts[i] < -tau ? (double)1.0 : (double)0.0;
        } else {
            double z = (-tau - shifts[i]) / sd;
            out[i] = (double)0.5 * erfc(-z * inv_sqrt2);
        }
    }
}
"""


def _float32_variant(source: str) -> str:
    """Derive the float32 translation of the float64 kernel text."""
    return (
        source.replace("_f64", "_f32")
        .replace("erfc(", "erfcf(")
        .replace("double", "float")
    )


C_SOURCE = (
    "#include <math.h>\n#include <stddef.h>\n"
    + _TEMPLATE
    + _float32_variant(_TEMPLATE)
)
