"""Dissimilarity matrix validation, Gram centering, and signature recovery.

The objects here treat a dissimilarity matrix as pure data: symmetric,
zero diagonal, otherwise arbitrary.  Negative entries and triangle
violations are allowed by design; everything downstream is built on the
eigenstructure of the doubly centered Gram matrix B = -CDC/2.
"""

from __future__ import annotations

import contextlib
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
    """Spectrum of a centered Gram matrix B, with factors of its parts.

    Eigenvalues are in descending order.  The counts (p, q, zero_rank)
    partition n by comparing each eigenvalue against the threshold tau:
    above +tau, below -tau, or numerically zero.  ``factors`` is (P, N),
    n x p' and n x q', with P P^T - N N^T = B to rounding, up to a
    multiple of 11^T that no pair sees; a spectrum-only decomposition
    holds None.  On the full branch P and N are the eigenvectors of the
    p positive and q negative eigenvalues, scaled by sqrt(|lambda|).  On
    a slice the smaller part is that, and the larger a pivoted Cholesky
    factor lifted along the all-ones direction, one column wider than
    its count (:func:`_pstrf`).
    """

    eigenvalues: np.ndarray
    p: int
    q: int
    zero_rank: int
    tau: float
    factors: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def decompose(B, vectors: bool = True) -> GramDecomposition:
    """Eigendecompose a symmetric matrix and bucket its spectrum.

    Parameters
    ----------
    B : array_like
        Symmetric matrix (checked within ``1e-8 * |B|_max``), typically
        the output of :func:`center_gram`.  With vectors, LAPACK works
        in B's own buffer, so a writeable C-contiguous float64 B is
        overwritten (pass ``B.copy()`` to keep it), and a read-only,
        non-C-contiguous or non-float64 B is copied first and never
        written.
    vectors : bool
        False computes the eigenvalues alone (about half the time) by
        ``np.linalg.eigvalsh`` on numpy's own copy of B^T, with no
        factors, and never writes B.  The eigenvalues agree with the
        full decomposition's to rounding, and so do (p, q, zero_rank)
        and tau.

    Returns
    -------
    GramDecomposition
        With ``tau = DEFAULT_TAU_REL * |lambda|_max``, relative to the
        spectrum, so scaling B scales tau and keeps (p, q, zero_rank).
        The zero matrix has tau 0 and every eigenvalue counted as zero.
        B is reduced to tridiagonal form once (``dsytrd``), and a Sturm
        count of its signature picks one of two branches.  Where the
        smaller part, min(p, q), is at most a fixed share of n (simplex
        input, Euclidean input, its negation), the decomposition is
        sliced: the eigenvalues come from ``dsterf``, the smaller part's
        eigenvectors alone from ``dstebz`` and ``dstein``, and the larger
        part is a pivoted Cholesky factor (``dpstrf``) of the rest of B,
        lifted along the all-ones direction.  It stays in B's own buffer,
        with the smaller part beside it where that fits, unless it is at
        most n/2 wide: then it is copied out, and B's buffer can be freed.
        Any other input, and any input on the ``np.linalg`` route, takes
        the full branch, which leaves the eigenvectors in B's rows and
        gathers the factors from them.  Bit for bit, on exactly symmetric
        B, its spectrum is ``np.linalg.eigh``'s reversed, and its factors
        eigh's ``U[:, ::-1]`` columns above +tau and below -tau, scaled;
        the spectrum alone is ``eigvalsh(B.T)[::-1]``.

    Raises
    ------
    DissimilarityError
        If B is not square or not symmetric.
    NumericalError
        If B is not finite, or the eigensolver does not converge.
    """
    B = _own_square(B) if vectors else _square(np.asarray(B, dtype=np.float64))
    top = _abs_max(B)
    if not np.isfinite(top):
        raise NumericalError("Gram matrix is not finite: centering overflowed")
    if _asymmetry(B) > 1e-8 * top:
        raise DissimilarityError("matrix is not symmetric")
    try:
        if vectors:
            lam, factors = _factor(B, top)
        else:
            lam, factors = np.linalg.eigvalsh(B.T)[::-1], None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    tau, p, q = _bucket(lam)
    return GramDecomposition(lam, p, q, B.shape[0] - p - q, tau, factors)


def _bucket(lam: np.ndarray) -> tuple[float, int, int]:
    """(tau, p, q) of a spectrum."""
    tau = DEFAULT_TAU_REL * float(np.abs(lam).max())
    return tau, int(np.sum(lam > tau)), int(np.sum(lam < -tau))


def _square(B: np.ndarray) -> np.ndarray:
    """B, a nonempty square array, or DissimilarityError."""
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DissimilarityError(f"expected a square matrix, got shape {B.shape}")
    if B.size == 0:
        raise DissimilarityError("matrix is empty")
    return B


def _own_square(B) -> np.ndarray:
    """B as a nonempty square array that LAPACK may factor in place: B
    itself if it is writeable, C-contiguous and float64, else a C-ordered
    float64 copy.  Raises DissimilarityError on any other shape."""
    return _square(np.require(B, dtype=np.float64, requirements=["C", "W", "E"]))


# A signature part of at most this share of n is sliced off.  At n = 2000
# the slice and the full branch cost the same near 0.16: the smaller part of
# simplex input is 0.10 of n, of balls 0.41 (BENCH_spectrum_slice.json)
_SLICE_SHARE = 0.15

# The LAPACK and CBLAS symbols core calls, by routine.  dstedc and dormtr
# are the _work forms, which take the workspace dsyevd gives them
_SYMBOLS = {
    name: f"scipy_{symbol}64_" for name, symbol in (
        ("dsytrd", "LAPACKE_dsytrd"), ("dsterf", "LAPACKE_dsterf"),
        ("dstebz", "LAPACKE_dstebz"), ("dstein", "LAPACKE_dstein"),
        ("dstedc", "LAPACKE_dstedc_work"), ("dormtr", "LAPACKE_dormtr_work"),
        ("dsyrk", "cblas_dsyrk"), ("dpstrf", "LAPACKE_dpstrf"),
        ("dpotrf", "LAPACKE_dpotrf"), ("dlapmt", "LAPACKE_dlapmt"),
    )
}


@functools.cache
def _lapacke():
    """{name: routine} from the LAPACKE and CBLAS inside numpy's own
    OpenBLAS, or None.

    numpy's wheels link linalg against an ILP64 OpenBLAS whose symbols
    carry a ``scipy_`` prefix and a ``64_`` suffix; ``dlsym`` on
    ``_umath_linalg`` finds them among its dependencies.  Where numpy
    links another LAPACK, or exports none, the callers take the
    ``np.linalg`` route, which runs eigh and cholesky on a copy.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        found = {name: getattr(lib, symbol) for name, symbol in _SYMBOLS.items()}
        _heap()
    except (AttributeError, OSError, TypeError):
        return None
    m = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    v = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    iv = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS,WRITEABLE")
    e, c, n, d = ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_double
    argtypes = {
        "dsytrd": [e, c, n, m, n, v, v, v],
        "dsterf": [n, v, v],
        "dstebz": [c, c, n, d, d, n, n, d, v, v, iv, iv, v, iv, iv],
        "dstein": [e, n, v, v, n, v, iv, iv, m, n, iv],
        "dstedc": [e, c, n, v, v, m, n, v, n, iv, n],
        "dormtr": [e, c, c, c, n, n, m, n, v, m, n, v, n],
        "dsyrk": [e, e, e, n, n, d, m, n, d, m, n],
        "dpstrf": [e, c, n, m, n, iv, iv, d],
        "dpotrf": [e, c, n, m, n],
        "dlapmt": [e, n, n, n, m, n, iv],
    }
    for name, routine in found.items():
        routine.argtypes = argtypes[name]
        routine.restype = None if name == "dsyrk" else n
    return found


@functools.cache
def _heap():
    """(malloc, free) of the C library."""
    libc = ctypes.CDLL(None)
    malloc, free = libc.malloc, libc.free
    malloc.argtypes, malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    free.argtypes, free.restype = [ctypes.c_void_p], None
    return malloc, free


@contextlib.contextmanager
def _workspace(count: int):
    """count doubles of LAPACK workspace, freed on exit.

    Taken from the C heap, as LAPACKE takes its own: like that, it is
    out of tracemalloc's view, and freed above glibc's mmap threshold,
    it goes back to the system.
    """
    malloc, free = _heap()
    address = malloc(max(count, 1) * 8)
    if not address:
        raise MemoryError(f"cannot allocate {count} doubles of LAPACK workspace")
    try:
        yield np.ctypeslib.as_array((ctypes.c_double * count).from_address(address))
    finally:
        free(address)


# LAPACK_COL_MAJOR: LAPACKE reads a C-ordered a as its transpose, in place,
# where row-major layout would make it transpose a into a copy.  Its lower
# triangle (UPLO "L", as numpy's) is then a's upper one
_COL_MAJOR = 102
_CBLAS_UPPER, _CBLAS_NO_TRANS = 121, 111


def _call(lapack, name: str, *args) -> None:
    """lapack[name](*args), raising NumericalError on a nonzero info."""
    info = lapack[name](*args)
    if info:
        raise NumericalError(f"eigendecomposition failed: {name} info {info}")


def _factor(a: np.ndarray, top: float):
    """(lam, (pos, neg)) of a^T, descending, in a's own buffer.

    a is square, C-ordered, float64, writeable and finite, with top its
    largest magnitude.  dsytrd reduces it to a tridiagonal T in its upper
    triangle, as dsyevd does, scaled first as dsyevd scales.  A Sturm
    count of T's signature may take the slice branch (:func:`_slice`);
    otherwise, or where the slice fails, dstedc and dormtr finish
    dsyevd's own steps, with its workspace sizes: lam and the
    eigenvectors U = a[::-1]^T are its bits, and the factors are
    gathered from U (:func:`_scaled_parts`).  The ``np.linalg`` route
    runs eigh on a copy of a^T, with the same bits, and its LinAlgError
    reaches the caller.
    """
    lapack = _lapacke()
    if lapack is None:
        lam, U = np.linalg.eigh(a.T)
        return lam[::-1], _scaled_parts(lam[::-1], U[:, ::-1])
    n = a.shape[0]
    diag = a.diagonal().copy()
    sigma = _scale(a, top)
    d, e, tau = np.empty(n), np.empty(n), np.empty(n)
    _call(lapack, "dsytrd", _COL_MAJOR, b"L", n, a, n, d, e, tau)
    if _smaller_part(d, e) <= _SLICE_SHARE * n:
        found = _slice(lapack, a, (d, e, tau), diag, sigma)
        if found is not None:
            return found
    iwork = np.empty(3 + 5 * n, np.int64)
    with _workspace(2 * n * n + 4 * n + 1) as work:
        z, work = work[:n * n].reshape(n, n), work[n * n:]
        _call(lapack, "dstedc", _COL_MAJOR, b"I", n, d, e, z, n, work, work.size,
              iwork, iwork.size)
        _call(lapack, "dormtr", _COL_MAJOR, b"L", b"L", b"N", n, n, a, n, tau, z, n,
              work, work.size)
        a[...] = z
    if sigma != 1.0:
        d *= 1.0 / sigma
    return d[::-1], _scaled_parts(d[::-1], a[::-1].T)


def _scaled_parts(lam: np.ndarray, U: np.ndarray):
    """(pos, neg): the columns of U whose eigenvalue lies above +tau and
    below -tau, each scaled by sqrt(|lambda|)."""
    tau, _, _ = _bucket(lam)
    pos, neg = lam > tau, lam < -tau
    P, N = U[:, pos], U[:, neg]  # fancy indexing copies, so scale in place
    P *= np.sqrt(lam[pos])
    N *= np.sqrt(-lam[neg])
    return P, N


def _scale(a: np.ndarray, top: float) -> float:
    """dsyevd's scale sigma of a, applied to a's upper triangle, which
    dsytrd reads: a matrix whose largest magnitude lies outside
    [sqrt(s), 1/sqrt(s)], with s the safe minimum over the precision, is
    brought to that bound.  1.0 for any other matrix, left as it is."""
    n = a.shape[0]
    small = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
    low, high = np.sqrt(small), np.sqrt(1.0 / small)
    if n == 1 or low <= top <= high or top == 0.0:
        return 1.0
    sigma = (low if top < low else high) / top
    for rows, cols in _blocks(n):
        block = a[rows, cols]
        if rows == cols:
            block[np.triu_indices(block.shape[0])] *= sigma
        else:
            block *= sigma
    return sigma


def _smaller_part(d: np.ndarray, e: np.ndarray) -> int:
    """min(p, q) of the tridiagonal with diagonal d and off-diagonal e,
    by Sturm counts in O(n) at -tau and +tau, with tau relative to the
    Gershgorin bound, which lies between |lambda|_max and three times it."""
    n = d.size
    tau = DEFAULT_TAU_REL * _gershgorin(d, e)
    diagonal, squares = d.tolist(), [0.0] + (e[:n - 1] ** 2).tolist()
    pivmin = np.finfo(np.float64).tiny * max(1.0, max(squares))

    def below(x):  # eigenvalues below x: the negative pivots of T - x I
        count, pivot = 0, 1.0
        for di, ei2 in zip(diagonal, squares):
            pivot = di - x - ei2 / pivot
            if abs(pivot) < pivmin:
                pivot = -pivmin
            count += pivot < 0.0
        return count

    return min(n - below(tau), below(-tau))


def _gershgorin(d: np.ndarray, e: np.ndarray) -> float:
    """max_i |d_i| + |e_(i-1)| + |e_i|: no eigenvalue of the tridiagonal
    (d, e) is larger in magnitude."""
    off = np.abs(e[:d.size - 1])
    radius = np.abs(d)
    radius[1:] += off
    radius[:-1] += off
    return float(radius.max())


def _slice(lapack, a: np.ndarray, tridiagonal, diag: np.ndarray, sigma: float):
    """(lam, (pos, neg)) of a^T from its tridiagonal form, or None where
    dstebz or dstein fail.

    (d, e, tau) and the upper triangle of a are dsytrd's output, of a
    scaled by sigma, and a's strict lower triangle is untouched; diag is
    a's own diagonal.  The eigenvalues come from dsterf.  The k vectors
    of the smaller part (the positive one on a tie) come from dstebz and
    dstein, back-transformed by dormtr, and F is them scaled by
    sqrt(|lambda|).  dsyrk forms F F^T -+ a in a's lower triangle, with
    the sign that leaves the larger part, and dpstrf factors it there
    (:func:`_pstrf`): F and that factor reproduce a, lifted.  d, e and
    tau are left as they were, so a failure can go on to the full branch.
    """
    d, e, tau = tridiagonal
    n = d.size
    w = d.copy()
    _call(lapack, "dsterf", n, w, e.copy())  # dsterf overwrites both
    cut, p, q = _bucket(w)  # of a scaled by sigma
    positive = p <= q
    k = min(p, q)
    f = np.empty((k, n))  # F^T: dstein's column-major n x k
    if k:
        # bisection over (cut, 2g] or (-2g, -cut], g the Gershgorin bound: by
        # value, since dstebz by index writes past its workspace on ties
        outer = 2.0 * _gershgorin(d, e)
        low, high = (cut, outer) if positive else (-outer, -cut)
        found, blocks = np.zeros(1, np.int64), np.zeros(1, np.int64)
        vals, iblock, isplit = np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64)
        if (lapack["dstebz"](b"V", b"B", n, low, high, 0, 0, 0.0, d, e, found, blocks,
                             vals, iblock, isplit) or found[0] != k
                or lapack["dstein"](_COL_MAJOR, n, d, e, k, vals, iblock, isplit, f, n,
                                    np.empty(k, np.int64))):
            return None
        # dormqr's optimal workspace at its largest block, 64 reflectors:
        # 64 doubles per column of F^T, and its 65 x 64 block reflector
        work = np.empty(64 * (k + 65))
        _call(lapack, "dormtr", _COL_MAJOR, b"L", b"L", b"N", n, k, a, n, tau, f, n,
              work, work.size)
        f *= np.sqrt(np.abs(vals[:k]) * (1.0 / sigma))[:, None]
    if sigma != 1.0:
        w *= 1.0 / sigma
    a.flat[:: n + 1] = diag
    lapack["dsyrk"](_COL_MAJOR, _CBLAS_UPPER, _CBLAS_NO_TRANS, n, k, 1.0, f, n,
                    -1.0 if positive else 1.0, a, n)
    # what dpstrf leaves unfactored has trace at most tau: the full branch's
    # bound on the eigenvalues it counts as zero
    larger = _pstrf(a, cut * (1.0 / sigma) / n)
    r = larger.shape[1]
    if 2 * r > n and r + k <= n:
        # the larger part is a view of a, and the smaller fits beside it: a run
        # that holds B then holds no k x n array more (a jl-pq run on the
        # n = 1024 simplex peaks at 3.03 n x n arrays, not 3.13)
        a[:, r:r + k] = f.T
        f = a[:, r:r + k].T
    return w[::-1], (f.T, larger) if positive else (larger, f.T)


def _pstrf(a: np.ndarray, tol: float) -> np.ndarray:
    """G, n x rank, with G G^T = a + s 11^T / n, s a's largest diagonal
    entry, by dpstrf with pivoting in a's own buffer: a view of a's
    leading columns, or a copy if at most n/2 wide, so that a can go.

    a is positive semidefinite with the all-ones vector as an
    eigenvector, null on a centered Gram matrix; only its lower triangle
    is read.  The lift changes no distance between G's rows and keeps
    that direction out of the last pivot, where its rounding-level
    eigenvalue e would arrive as n e and be kept or dropped by chance
    (1.1e-10 of max|D| lost on the alpha = 0 simplex at n = 1000).
    dpstrf stops where the largest pivot left is at most tol, so what G
    leaves out has trace at most n tol.  It leaves L, with
    P^T a P = L L^T, in a's lower triangle; the strict upper part of its
    columns is zeroed, and dlapmt moves row k to row piv[k] (G = P L).
    The ``np.linalg`` route returns eigh's eigenvectors of the lifted
    a's eigenvalues above tol, scaled by their roots.
    """
    n = a.shape[0]
    a += a.diagonal().max() / n
    lapack = _lapacke()
    if lapack is None:
        try:
            mu, U = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        keep = mu > tol
        return U[:, keep] * np.sqrt(mu[keep])
    piv, rank = np.empty(n, np.int64), np.zeros(1, np.int64)
    info = lapack["dpstrf"](_COL_MAJOR, b"U", n, a, n, piv, rank, tol)
    if info < 0:
        raise NumericalError(f"eigendecomposition failed: dpstrf info {info}")
    r = int(rank[0])
    for r0, r1 in _tiles(r, _BLOCK):
        a[r0:r1, r1:r] = 0.0
        block = a[r0:r1, r0:r1]
        block[np.triu_indices(r1 - r0, 1)] = 0.0
    # a's rows are the columns of the r x n column-major matrix at a with
    # leading dimension n: dlapmt's backward permutation moves column k to piv[k]
    _call(lapack, "dlapmt", _COL_MAJOR, 0, r, n, a, n, piv)
    return a[:, :r].copy() if 2 * r <= n else a[:, :r]


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
    info = lapack["dpotrf"](_COL_MAJOR, b"L", n, a, n)
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
