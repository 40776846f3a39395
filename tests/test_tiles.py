"""Tiled O(n^2) passes against the whole-matrix formulas they replaced.

Each reference, below or in conftest, is the whole-matrix formula the
library used before its passes ran in row tiles and square blocks.  The
tile constants are patched small so every size in SIZES starts, ends or
straddles a tile and a block edge, and every output must match its
reference bit for bit: the per-tile band columns match the whole band
arrays, and the bound checks' summaries the reductions of those arrays.

The one exception is squared distances, which come from one Gram
product per band of _BLOCK rows rather than from a whole one: jl-pq's P
and Q, ``squared_distances`` and every route's reconstruction.  They
match ``band_distances`` below bit for bit, and the whole-matrix oracle
within ULPS units of rounding; jl-pq's flags differ from it only on
pairs within that bound of a tie.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from dissimjl import (
    BallSpec,
    DissimilarityError,
    ProjectionConfig,
    SimplexSpec,
    center_gram,
    decompose,
    embed_pq,
    gen_balls,
    gen_simplex,
    project_pq,
    reconstruct,
    relative_error_stats,
    run_projection,
    squared_distances,
    validate_matrix,
    validate_power_residual,
    validate_pq_bound,
)
from dissimjl import core

from conftest import (
    band_columns,
    random_hollow,
    ref_power_residual,
    ref_power_summary,
    ref_pq_bound,
    ref_pq_summary,
    ref_squared_distances,
)

T = 5
SIZES = (2, 3, T - 1, T, T + 1, 2 * T + 3)
PQ_COLUMNS = ("factor", "band_lower", "band_upper", "violated")
# band and whole Gram products may round apart; measured up to 0.75 units
# of eps (|x_i|^2 + |x_j|^2) on P and Q together
ULPS = 4


@pytest.fixture(params=[1, T - 1], ids=["rows1", f"rows{T - 1}"])
def tiles(request, monkeypatch):
    """Blocks of side T; tiles(n) sets row tiles of the param's row count at n."""
    monkeypatch.setattr(core, "_BLOCK", T)

    def use(n):
        monkeypatch.setattr(core, "_TILE_ENTRIES", request.param * n)
        return request.param

    return use


def ref_validate(raw):
    A = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(A)):
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise DissimilarityError(f"non-finite entry at ({i}, {j}): {A[i, j]!r}")
    tol = 1e-9 * max(1.0, float(np.abs(A).max()))
    gap = np.abs(A - A.T)
    if gap.max() > tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise DissimilarityError(
            f"asymmetric at ({i}, {j}): {A[i, j]!r} vs {A[j, i]!r}"
        )
    sym = 0.5 * (A + A.T)
    np.fill_diagonal(sym, 0.0)
    return sym


def ref_center_gram(A):
    row = A.mean(axis=1)
    grand = row.mean()
    return -0.5 * (A - (row[:, None] + row[None, :]) + grand)


def ref_error_stats(A, Ah):
    iu = np.triu_indices(A.shape[0], 1)
    d, dh = A[iu], Ah[iu]
    mask = d != 0.0
    excluded = int(np.sum(~mask))
    if not mask.any():
        return (0.0, 0.0, 0.0, excluded)
    rel = np.abs(dh[mask] - d[mask]) / np.abs(d[mask])
    rel = np.where(np.isfinite(rel), rel, np.inf)
    return (float(rel.max()), float(rel.mean()), float(np.median(rel)), excluded)


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def inputs(n):
    """Raw matrices: balls with exact-zero pairs, an asymmetric hollow one."""
    rng = np.random.default_rng(n)
    balls = gen_balls(BallSpec(n=n, dim=1, seed=n)).entries
    asym = random_hollow(rng, n) + 1e-12 * rng.uniform(-1, 1, size=(n, n))
    np.fill_diagonal(asym, 0.0)
    return {"balls": balls, "asym": asym}


def noisy(A, seed):
    """A perturbed reconstruction holding inf, -inf and nan entries."""
    rng = np.random.default_rng(seed)
    Ah = A + 0.3 * rng.standard_normal(A.shape)
    Ah = 0.5 * (Ah + Ah.T)
    Ah[0, -1] = np.inf
    Ah[-1, 0] = np.nan
    if A.shape[0] > 2:
        Ah[0, 1] = np.nan
        Ah[1, 2] = -np.inf
    return Ah


def band_distances(X):
    """Squared distances from one product X[b0:b1] X[b0:]^T per band.

    The bands have _BLOCK rows.  Only their upper part is filled: the
    band pass reads the pairs i < j alone.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    D = np.zeros((n, n))
    for b0 in range(0, n, core._BLOCK):
        b1 = min(n, b0 + core._BLOCK)
        G = X[b0:b1] @ X[b0:].T
        D[b0:b1, b0:] = np.maximum(sq[b0:b1, None] + sq[None, b0:] - 2.0 * G, 0.0)
    return D


def mirrored(V):
    """V's strict upper triangle, copied to both triangles; zero diagonal."""
    iu = np.triu_indices(V.shape[0], 1)
    out = np.zeros(V.shape)
    out[iu] = out.T[iu] = V[iu]
    return out


def assert_near_whole_distances(D, X):
    """D within ULPS eps (|x_i|^2 + |x_j|^2) of the whole-matrix oracle."""
    s = np.einsum("ij,ij->i", X, X)
    tol = ULPS * np.finfo(float).eps * (s[:, None] + s[None, :])
    assert np.all(np.abs(D - ref_squared_distances(X)) <= tol)


def assert_pq_near_whole(A, emb, Ah, epsilon, cols):
    """jl-pq's P, Q and flags against the whole-matrix oracle.

    P and Q must lie within tol = ULPS eps (|x_i|^2 + |x_j|^2 + |D_ij|)
    of it, with x_i point i's coordinates in both parts.  The exclusion
    and violation flags must agree on every pair except where the
    oracle's |P - Q| or |Dhat - band edge| is within tol.
    """
    iu = np.triu_indices(A.shape[0], 1)
    P = ref_squared_distances(emb.pos_coords)[iu]
    Q = ref_squared_distances(emb.neg_coords)[iu]
    s = np.einsum("ij,ij->i", emb.coords, emb.coords)
    tol = ULPS * np.finfo(float).eps * (s[iu[0]] + s[iu[1]] + np.abs(A[iu]))
    p, q = (np.concatenate(list(core._upper_distances(X)))
            for X in (emb.pos_coords, emb.neg_coords))
    assert np.all(np.abs(p - P) + np.abs(q - Q) <= tol)
    _, lower, upper, violated, excluded = ref_pq_bound(A, emb, Ah, epsilon)
    dh = Ah[iu]
    with np.errstate(invalid="ignore"):  # inf - inf on the noisy entries
        tie = ((np.abs(P - Q) <= tol) | (np.abs(dh - lower) <= tol)
               | (np.abs(dh - upper) <= tol))
    assert np.array_equal(np.isinf(cols["factor"])[~tie], excluded[~tie])
    assert np.array_equal(cols["violated"][~tie], violated[~tie])


def test_inputs_cover_the_awkward_cases():
    n = 2 * T + 3
    data = inputs(n)
    iu = np.triu_indices(n, 1)
    assert np.sum(data["balls"][iu] == 0.0) > 0
    assert not np.array_equal(data["asym"], data["asym"].T)


@pytest.mark.parametrize("n", SIZES)
def test_upper_rows_follow_triu_order(tiles, n):
    rows = tiles(n)
    I, J = np.indices((n, n))
    got_i, got_j, slots, spans = [], [], [], []
    for block, pairs, tri in core._upper_rows(n):
        spans.append((block[0].start, block[0].stop))
        got_i.append(I[block][tri])
        got_j.append(J[block][tri])
        slots.append(np.arange(n * (n - 1) // 2)[pairs])
    iu, ju = np.triu_indices(n, 1)
    assert np.array_equal(np.concatenate(got_i), iu)
    assert np.array_equal(np.concatenate(got_j), ju)
    assert np.array_equal(np.concatenate(slots), np.arange(iu.size))
    # tiles of the row count, each cut short at the edge of its T-row band
    expected = [(r, min(r + rows, b + T, n))
                for b in range(0, n, T) for r in range(b, min(b + T, n), rows)]
    assert spans == expected


@pytest.mark.parametrize("n", SIZES)
def test_validate_and_center_match_whole_matrix(tiles, n):
    tiles(n)
    for raw in inputs(n).values():
        sym = validate_matrix(raw).entries
        assert same(sym, ref_validate(raw))
        assert same(center_gram(sym), ref_center_gram(sym))


@pytest.mark.parametrize("n", SIZES)
def test_squared_distances_match_whole_matrix(tiles, n):
    tiles(n)
    X = np.random.default_rng(n).standard_normal((n, 7))
    strided = (np.hstack([X, X])[:, ::2], np.vstack([X, X])[::2])
    for Y in (X, np.asfortranarray(X), *strided, X[:, :0]):
        D = squared_distances(Y)
        assert same(D, mirrored(band_distances(Y)))
        assert_near_whole_distances(D, Y)


def test_squared_distances_average_an_inexact_gram(tiles):
    # numpy multiplies this column-strided X by its transpose through a
    # general product, which need not round (i, j) and (j, i) alike; each
    # pair is formed once, from its upper entry, and mirrored
    n = 150
    tiles(n)
    X = np.random.default_rng(0).standard_normal((n, 40))
    Y = np.hstack([X, X])[:, ::2]
    D = squared_distances(Y)
    assert same(D, mirrored(band_distances(Y)))
    assert_near_whole_distances(D, Y)
    assert np.array_equal(D, D.T)


@pytest.mark.parametrize("method", ["jl", "jl-pq", "jl-power"])
@pytest.mark.parametrize("n", SIZES)
def test_reconstruct_matches_band_oracle(tiles, method, n):
    # P - Q - 4r^2 from band products, whatever the tile height
    tiles(n)
    for name, raw in inputs(n).items():
        res = run_projection(raw, method)
        x = res.projected
        if method == "jl":
            ref = band_distances(x)
        elif method == "jl-pq":
            ref = band_distances(x.pos_coords) - band_distances(x.neg_coords)
        else:
            ref = band_distances(x.centers) - 4.0 * x.radius**2
        assert same(res.reconstructed, mirrored(ref)), name
        assert same(reconstruct(x), res.reconstructed), name


@pytest.mark.parametrize("n", SIZES)
def test_scoring_passes_match_whole_matrix(tiles, n):
    tiles(n)
    for name, raw in inputs(n).items():
        Dm = validate_matrix(raw)
        A = Dm.entries
        emb = embed_pq(decompose(center_gram(Dm)))
        for Ah in (A, noisy(A, n)):
            stats = relative_error_stats(Dm, Ah)
            ref = ref_error_stats(A, Ah)
            got = (stats.max_rel, stats.mean_rel, stats.median_rel, stats.excluded_pairs)
            assert repr(got) == repr(ref), name
            ref = ref_pq_bound(A, emb, Ah, 0.5, band_distances)
            check = validate_pq_bound(Dm, emb, Ah, 0.5)
            got = (check.violation_rate, check.excluded_pairs)
            assert repr(got) == repr(ref_pq_summary(*ref[3:])), name
            cols = band_columns("jl-pq", Dm, Ah, 0.5, emb=emb)
            for col, ref_a in zip(PQ_COLUMNS, ref):
                assert same(cols[col], ref_a), (name, col)
            assert_pq_near_whole(A, emb, Ah, 0.5, cols)
            ref = ref_power_residual(A, Ah, 0.5)
            check = validate_power_residual(Dm, 0.7, Ah, 0.5)
            got = (check.max_residual, check.fraction_within)
            assert repr(got) == repr(ref_power_summary(ref, check.bound)), name
            cols = band_columns("jl-power", Dm, Ah, 0.5, bound=check.bound)
            assert same(cols["residual"], ref), name
            assert same(cols["violated"], ref > check.bound), name


@pytest.mark.parametrize("kind", ["simplex", "balls"])
def test_pq_band_pass_at_full_block_size(kind, monkeypatch):
    # bands of the default 256 rows, the last one of 32: the products are
    # real GEMMs, and on one BLAS thread the balls' exact-zero pairs put
    # P - Q at the exclusion tie, where 74 factors turn finite or infinite
    n = 800
    Dm = gen_simplex(SimplexSpec(n)) if kind == "simplex" else gen_balls(BallSpec(n, seed=1))
    A = Dm.entries
    emb = embed_pq(decompose(center_gram(Dm)))
    Ah = noisy(A, n)
    ref = ref_pq_bound(A, emb, Ah, 0.5, band_distances)
    for entries in (core._TILE_ENTRIES, 7 * n):  # tiles of 81 and 7 rows
        monkeypatch.setattr(core, "_TILE_ENTRIES", entries)
        cols = band_columns("jl-pq", Dm, Ah, 0.5, emb=emb)
        for col, ref_a in zip(PQ_COLUMNS, ref):
            assert same(cols[col], ref_a), (entries, col)
        assert_pq_near_whole(A, emb, Ah, 0.5, cols)


def test_pq_bound_pass_holds_no_square_array():
    # two band products of 256 x n doubles (4 MiB at n = 1024) and a few
    # tile vectors; the whole Gram products took 16 MiB
    n = 1024
    Dm = gen_balls(BallSpec(n, seed=1))
    emb = embed_pq(decompose(center_gram(Dm)))
    assert emb.q > 0
    Dhat = reconstruct(emb)
    tracemalloc.start()
    try:
        validate_pq_bound(Dm, emb, Dhat, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_pq_reconstruct_holds_one_square_array():
    # D-hat, one band product of 256 x n doubles (a quarter of D-hat at
    # n = 1024) and a few tile vectors: 1.41 D-hat, where a whole Q took
    # 2.26
    n = 1024
    emb = embed_pq(decompose(center_gram(gen_balls(BallSpec(n, seed=1)))))
    projected = project_pq(emb, ProjectionConfig())
    assert projected.p > 0 and projected.q > 0
    tracemalloc.start()
    try:
        reconstruct(projected)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


@pytest.mark.parametrize("n", SIZES)
def test_errors_name_the_same_entry(tiles, n):
    tiles(n)
    rng = np.random.default_rng(n)
    bad = []
    A = random_hollow(rng, n)
    A[n - 1, 0] += 1e-3  # lower-triangle entry, outside the first block row
    bad.append(A)
    A = random_hollow(rng, n)
    A[0, n - 1] = A[n - 2, 1] = 5.0  # a tie: the first in row-major order wins
    bad.append(A)
    A = random_hollow(rng, n)
    A[n // 2, n - 1] = np.nan
    A[n - 1, 0] = np.inf
    bad.append(A)
    for raw in bad:
        with pytest.raises(DissimilarityError) as expected:
            ref_validate(raw)
        with pytest.raises(DissimilarityError) as got:
            validate_matrix(raw)
        assert str(got.value) == str(expected.value)


def test_decompose_checks_symmetry_across_blocks(tiles):
    n = 2 * T + 3
    tiles(n)
    B = center_gram(validate_matrix(random_hollow(np.random.default_rng(1), n)))
    B[n - 1, 1] += 1e-3
    with pytest.raises(DissimilarityError, match="not symmetric"):
        decompose(B)


def test_validate_keeps_huge_entries_finite(tiles):
    n = 2 * T + 3
    tiles(n)
    raw = np.full((n, n), 1.5e308)
    raw[0, 1] = raw[1, 0] = -1.5e308
    np.fill_diagonal(raw, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = validate_matrix(raw).entries
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, raw)
