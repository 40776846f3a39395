"""Dissimilarity matrix validation, Gram centering, and signature recovery.

The objects here treat a dissimilarity matrix as pure data: symmetric,
zero diagonal, otherwise arbitrary.  Negative entries and triangle
violations are allowed by design; everything downstream is built on the
eigenstructure of the doubly centered Gram matrix B = -CDC/2.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_TAU_REL = 1e-9

# Elementwise O(n^2) passes run over row tiles of about 512 KB of doubles,
# and reads of a transpose over square blocks, so each pass stays in cache.
# Row tiles nest in bands of _BLOCK rows, the unit of every Gram product.
_TILE_ENTRIES = 2**16
_BLOCK = 256


class DissimilarityError(ValueError):
    """Input data breaks a structural contract (shape, symmetry, range)."""


class NumericalError(RuntimeError):
    """A numerical routine overflowed or failed to converge."""


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric hollow matrix of pairwise dissimilarities.

    Entries may be negative and need not satisfy the triangle
    inequality.  Construct through :func:`validate_matrix`, which
    canonicalizes raw input into read-only entries, possibly a view of
    it; instances are treated as immutable.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def as_matrix(D) -> np.ndarray:
    """Entries of a DissimilarityMatrix, or the input as a float array."""
    if isinstance(D, DissimilarityMatrix):
        return D.entries
    return np.asarray(D, dtype=float)


def validate_matrix(raw) -> DissimilarityMatrix:
    """Check and canonicalize a raw square matrix.

    Parameters
    ----------
    raw : array_like or DissimilarityMatrix
        Square matrix of finite values, symmetric with zero diagonal up
        to a tolerance of ``1e-9 * |raw|_max``.

    Returns
    -------
    DissimilarityMatrix
        The exactly symmetrized matrix, 0.5 A_ij + 0.5 A_ji (finite for
        any finite input), with the diagonal forced to +0, read-only.
        Where that equals a C-contiguous float64 input bit for bit, as
        on every matrix that ``gen``, ``ingest-graph`` and
        ``write_matrix`` produce, the entries are a view of the input and
        share its memory: writing to the original afterwards changes the
        validated matrix.  Any other input is copied.

    Raises
    ------
    DissimilarityError
        On wrong shape, non-finite entries, asymmetry, or a nonzero
        diagonal, naming the first offending index.
    """
    A = as_matrix(raw)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DissimilarityError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise DissimilarityError("matrix is empty")
    top = _abs_max(A)
    if not np.isfinite(top):
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise DissimilarityError(f"non-finite entry at ({i}, {j}): {A[i, j]!r}")
    tol = 1e-9 * top
    # per block of the upper block triangle: the gap, and the average
    # compared bit for bit with both mirror blocks; the copy is taken at
    # the first block that differs, and holds the earlier ones already
    sym = (None if A.dtype == np.float64 and A.flags.c_contiguous
           else A.astype(float, order="C"))
    gaps = []
    for rows, cols in _blocks(A.shape[0]):
        a, b = A[rows, cols], A[cols, rows].T
        gaps.append(np.abs(a - b).max())
        # halving before the sum keeps the average finite near the float64 limit
        avg = 0.5 * a + 0.5 * b
        if rows == cols:
            np.fill_diagonal(avg, 0.0)
        if sym is None:
            bits = avg.view(np.int64)
            if (np.array_equal(bits, a.view(np.int64))
                    and np.array_equal(bits, b.view(np.int64))):
                continue
            sym = A.copy()
        sym[rows, cols] = avg
        sym[cols, rows] = avg.T
    if max(gaps) > tol:
        gap = np.abs(A - A.T)
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise DissimilarityError(
            f"asymmetric at ({i}, {j}): {A[i, j]!r} vs {A[j, i]!r}"
        )
    diag = np.abs(np.diag(A))
    if diag.max() > tol:
        i = int(np.argmax(diag))
        raise DissimilarityError(f"nonzero diagonal at ({i}, {i}): {A[i, i]!r}")
    entries = A.view() if sym is None else sym
    entries.flags.writeable = False
    return DissimilarityMatrix(entries)


def center_gram(D) -> np.ndarray:
    """Doubly centered Gram matrix B = -C D C / 2 with C = I - (1/n)11'.

    Computed through row, column, and grand means, so the centering
    matrix is never formed.  For symmetric input the result is exactly
    symmetric and satisfies B 1 = 0 up to rounding.
    """
    A = as_matrix(D)
    B = np.empty(A.shape)
    # finite entries whose sums overflow leave inf and nan in B, which
    # decompose rejects as a NumericalError; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        row = A.mean(axis=1)
        grand = row.mean()
        for r0, r1 in _row_tiles(A.shape[0]):
            tile = B[r0:r1]
            # one symmetric mean term, so both triangles round identically
            np.subtract(A[r0:r1], row[r0:r1, None] + row[None, :], out=tile)
            tile += grand
            tile *= -0.5
    return B


@dataclass(frozen=True)
class GramDecomposition:
    """Eigendecomposition of a centered Gram matrix.

    Eigenvalues are in descending order with matching eigenvector
    columns (the solver's ascending output read reversed), or no
    eigenvectors (None) for a spectrum-only decomposition.  The counts
    (p, q, zero_rank) partition n by comparing each eigenvalue against
    the threshold tau: above +tau, below -tau, or numerically zero.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    p: int
    q: int
    zero_rank: int
    tau: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def decompose(B, vectors: bool = True) -> GramDecomposition:
    """Eigendecompose a symmetric matrix and bucket its spectrum.

    Parameters
    ----------
    B : array_like
        Symmetric matrix (checked within ``1e-8 * |B|_max``), typically
        the output of :func:`center_gram`.  LAPACK's ``dsyevd`` runs in
        B's own buffer, so with vectors a writeable C-contiguous float64
        B is overwritten: its rows hold the eigenvectors in ascending
        order, and ``eigenvectors`` is the reversed view B[::-1]^T;
        pass ``B.copy()`` to keep it.  A read-only, non-C-contiguous or
        non-float64 B is copied first and never written.
    vectors : bool
        False computes the eigenvalues alone (about half the time) by
        ``np.linalg.eigvalsh`` on a copy of B^T, leaves ``eigenvectors``
        None, and never writes B.  The eigenvalues agree with the full
        decomposition's to rounding, and so do (p, q, zero_rank) and
        tau.

    Returns
    -------
    GramDecomposition
        With ``tau = DEFAULT_TAU_REL * |lambda|_max``, relative to the
        spectrum, so scaling B scales tau and keeps (p, q, zero_rank).
        The zero matrix has tau 0 and every eigenvalue counted as zero.
        Bit for bit, the spectrum and eigenvectors are those of
        ``np.linalg.eigh`` on exactly symmetric B, reversed: ``lam[::-1]``
        and ``U[:, ::-1]``; the spectrum alone is ``eigvalsh(B.T)[::-1]``.

    Raises
    ------
    DissimilarityError
        If B is not square or not symmetric.
    NumericalError
        If B is not finite, or the eigensolver does not converge.
    """
    B = _own_square(B)
    top = _abs_max(B)
    if not np.isfinite(top):
        raise NumericalError("Gram matrix is not finite: centering overflowed")
    if _asymmetry(B) > 1e-8 * top:
        raise DissimilarityError("matrix is not symmetric")
    try:
        lam, U = _syevd(B) if vectors else (np.linalg.eigvalsh(B.T)[::-1], None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    tau = DEFAULT_TAU_REL * float(np.abs(lam).max())
    p = int(np.sum(lam > tau))
    q = int(np.sum(lam < -tau))
    return GramDecomposition(lam, U, p, q, B.shape[0] - p - q, tau)


def _own_square(B) -> np.ndarray:
    """B as a nonempty square array that LAPACK may factor in place: B
    itself if it is writeable, C-contiguous and float64, else a C-ordered
    float64 copy.  Raises DissimilarityError on any other shape."""
    B = np.require(B, dtype=np.float64, requirements=["C", "W", "E"])
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DissimilarityError(f"expected a square matrix, got shape {B.shape}")
    if B.size == 0:
        raise DissimilarityError("matrix is empty")
    return B


@functools.cache
def _lapacke():
    """(dsyevd, dpotrf) from the LAPACKE inside numpy's own OpenBLAS, or None.

    numpy's wheels link linalg against an ILP64 OpenBLAS whose symbols
    carry a ``scipy_`` prefix and a ``64_`` suffix; ``dlsym`` on
    ``_umath_linalg`` finds them among its dependencies.  Where numpy
    links another LAPACK, or exports none, the callers take the
    ``np.linalg`` route, which runs the same routines on a copy.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        syevd, potrf = lib.scipy_LAPACKE_dsyevd64_, lib.scipy_LAPACKE_dpotrf64_
    except (AttributeError, OSError):
        return None
    mat = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    vec = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    layout, char, lint = ctypes.c_int, ctypes.c_char, ctypes.c_int64
    syevd.argtypes = [layout, char, char, lint, mat, lint, vec]
    potrf.argtypes = [layout, char, lint, mat, lint]
    syevd.restype = potrf.restype = lint
    return syevd, potrf


# LAPACK_COL_MAJOR: LAPACKE reads a C-ordered a as its transpose, in place,
# where row-major layout would make it transpose a into a copy.  Its lower
# triangle (UPLO "L", as numpy's) is then a's upper one
_COL_MAJOR = 102


def _syevd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, U): the eigenvalues of a^T by LAPACK dsyevd in a's own buffer,
    descending, and U's columns their eigenvectors.

    a is square, C-ordered, float64 and writeable.  dsyevd leaves both in
    ascending order, the eigenvectors in a's rows; they are read reversed,
    with no data moved: U is a[::-1]^T.  The ``np.linalg`` route gives the
    same bits on a copy of a^T, and its LinAlgError reaches the caller.
    """
    lapack = _lapacke()
    n = a.shape[0]
    if lapack is None:
        lam, U = np.linalg.eigh(a.T)
        a[...] = U.T
    else:
        lam = np.empty(n)
        info = lapack[0](_COL_MAJOR, b"V", b"L", n, a, n, lam)
        if info:
            raise NumericalError(f"eigendecomposition failed: dsyevd info {info}")
    return lam[::-1], a[::-1].T


def _potrf(a: np.ndarray) -> None:
    """Cholesky factor L of a by LAPACK dpotrf, in a's own buffer.

    a is symmetric, square, C-ordered, float64 and writeable; it then
    holds L itself: lower triangular, C-ordered, zero above the diagonal.
    The ``np.linalg`` route gives the same bits on exactly symmetric a.
    """
    lapack = _lapacke()
    if lapack is None:
        try:
            a[...] = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Cholesky factorization failed: {exc}") from exc
        return
    n = a.shape[0]
    info = lapack[1](_COL_MAJOR, b"L", n, a, n)
    if info:
        raise NumericalError(f"Cholesky factorization failed: dpotrf info {info}")
    # dpotrf left L^T in a's upper triangle and diagonal: move it to the
    # lower one and zero the upper, band by band
    for r0, r1 in _tiles(n, _BLOCK):
        a[r1:, r0:r1] = a[r0:r1, r1:].T
        a[r0:r1, r1:] = 0.0
        block = a[r0:r1, r0:r1]
        upper = np.triu_indices(r1 - r0, 1)
        block.T[upper] = block[upper]
        block[upper] = 0.0


def squared_distances(X) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of X.

    Returns a symmetric hollow matrix; tiny negative values from
    cancellation are clamped to zero.  A zero-column input (no
    coordinates) gives the all-zero matrix.  The distances come from
    one Gram product per band of _BLOCK rows (see :func:`_pair_matrix`).
    """
    return _pair_matrix(X)


def _tiles(stop: int, size: int, start: int = 0):
    """Consecutive index ranges of at most size covering range(start, stop)."""
    for lo in range(start, stop, size):
        yield lo, min(stop, lo + size)


def _row_tiles(n: int, start: int = 0, stop: int | None = None):
    """Row ranges of an n-column matrix, about _TILE_ENTRIES entries each,
    from row start to row stop (the last row by default)."""
    stop = n if stop is None else stop
    return _tiles(stop, max(1, _TILE_ENTRIES // max(n, 1)), start)


def _blocks(n: int):
    """Square blocks (rows, cols) of the upper block triangle of an n x n matrix.

    Each off-diagonal block stands for itself and its mirror image.
    """
    for r0, r1 in _tiles(n, _BLOCK):
        for c0, c1 in _tiles(n, _BLOCK):
            if c0 >= r0:
                yield slice(r0, r1), slice(c0, c1)


def _upper_rows(n: int):
    """Row tiles of the strict upper triangle of an n x n matrix.

    Yields (block, pairs, tri): the tile's pairs are ``M[block][tri]`` for
    any n x n M, in row-major order, and ``pairs`` is their slice of a
    vector over all pairs in ``np.triu_indices(n, 1)`` order.  The tiles
    nest in bands of _BLOCK rows: a tile that would cross a band edge
    ends there.
    """
    i = np.arange(n + 1)
    offsets = i * n - i * (i + 1) // 2  # row i's pairs start at offsets[i]
    cols = np.arange(n)
    for b0, b1 in _tiles(n, _BLOCK):
        for r0, r1 in _row_tiles(n, b0, b1):
            tri = cols[None, r0:] > np.arange(r0, r1)[:, None]
            yield (slice(r0, r1), slice(r0, n)), slice(offsets[r0], offsets[r1]), tri


def _upper_distances(X):
    """Squared distances between the rows of X, per tile of _upper_rows.

    Yields one vector per tile, over the tile's pairs in order:
    s_i + s_j - 2 G_ij clamped at zero, with s the squared row norms and
    G the Gram product.  G comes from one product X[b0:b1] X[b0:]^T per
    band of _BLOCK rows, so the products' shapes, and with them their
    rounding, depend on n and _BLOCK only, never on the tile height.
    Each tile turns its own rows of the band into distances in place, so
    only the band is held: no n x n array is formed.
    """
    X = np.asarray(X, dtype=float)
    sq = np.einsum("ij,ij->i", X, X)
    for (rows, cols), _, tri in _upper_rows(X.shape[0]):
        r0 = rows.start
        b0 = r0 - r0 % _BLOCK
        if r0 == b0:  # release the last band before forming the next
            tile = band = None
            band = X[b0:b0 + _BLOCK] @ X[b0:].T
        tile = band[r0 - b0:rows.stop - b0, r0 - b0:]
        tile *= -2.0  # exact, so tile + (s_i + s_j) rounds as s_i + s_j - 2 G_ij
        tile += sq[rows, None] + sq[None, cols]
        np.maximum(tile, 0.0, out=tile)
        yield tile[tri]


def _pair_matrix(pos, neg=None, shift: float = 0.0) -> np.ndarray:
    """n x n matrix of P - Q - shift off the diagonal, zero on it.

    P and Q are the squared distances between the rows of pos and of neg
    (no neg: Q = 0), taken tile by tile from :func:`_upper_distances`.
    Q's tiles are staged in the upper triangle first, so one band product
    is held at a time.  Each pair's value is then formed once and written
    to (i, j) and (j, i): the result is exactly symmetric, and it is the
    only n x n array formed.
    """
    pos = np.asarray(pos, dtype=float)
    n = pos.shape[0]
    out = np.empty((n, n))
    if neg is not None:
        for q, ((rows, cols), _, tri) in zip(_upper_distances(neg), _upper_rows(n)):
            out[rows, cols][tri] = q
    for d, ((rows, cols), _, tri) in zip(_upper_distances(pos), _upper_rows(n)):
        if neg is not None:
            d -= out[rows, cols][tri]
        d -= shift
        out[rows, cols][tri] = d
        out[cols, rows].T[tri] = d
    np.fill_diagonal(out, 0.0)
    return out


def _abs_max(A: np.ndarray) -> float:
    """max |A|, nan if A holds a nan."""
    return float(np.max([np.abs(A[r0:r1]).max() for r0, r1 in _row_tiles(A.shape[0])]))


def _asymmetry(A: np.ndarray) -> float:
    """max |A - A^T|, over square blocks."""
    return float(max(np.abs(A[rows, cols] - A[cols, rows].T).max()
                     for rows, cols in _blocks(A.shape[0])))
