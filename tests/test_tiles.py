"""Tiled O(n^2) passes against the whole-matrix formulas they replaced.

Each reference, below or in conftest, is the whole-matrix formula the
library used before its passes ran in row tiles and square blocks.  The
tile constants are patched small so every size in SIZES starts, ends or
straddles a tile and a block edge, and every output must match its
reference bit for bit: the per-tile band columns match the whole band
arrays, and the bound checks' summaries the reductions of those arrays.
"""

import warnings

import numpy as np
import pytest

from dissimjl import (
    BallSpec,
    DissimilarityError,
    center_gram,
    decompose,
    embed_pq,
    gen_balls,
    relative_error_stats,
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
    got_i, got_j, slots = [], [], []
    for block, pairs, tri in core._upper_rows(n):
        got_i.append(I[block][tri])
        got_j.append(J[block][tri])
        slots.append(np.arange(n * (n - 1) // 2)[pairs])
    iu, ju = np.triu_indices(n, 1)
    assert np.array_equal(np.concatenate(got_i), iu)
    assert np.array_equal(np.concatenate(got_j), ju)
    assert np.array_equal(np.concatenate(slots), np.arange(iu.size))
    assert len(slots) == -(-n // rows)


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
        assert same(squared_distances(Y), ref_squared_distances(Y))


def test_squared_distances_average_an_inexact_gram(tiles):
    # numpy multiplies this column-strided X by its transpose through a
    # general product, which need not round (i, j) and (j, i) alike
    n = 150
    tiles(n)
    X = np.random.default_rng(0).standard_normal((n, 40))
    Y = np.hstack([X, X])[:, ::2]
    D = squared_distances(Y)
    assert same(D, ref_squared_distances(Y))
    assert np.array_equal(D, D.T)


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
            ref = ref_pq_bound(A, emb, Ah, 0.5)
            check = validate_pq_bound(Dm, emb, Ah, 0.5)
            got = (check.violation_rate, check.excluded_pairs)
            assert repr(got) == repr(ref_pq_summary(*ref[3:])), name
            cols = band_columns("jl-pq", Dm, Ah, 0.5, emb=emb)
            names = ("factor", "band_lower", "band_upper", "violated", "excluded")
            for col, ref_a in zip(names, ref):
                assert same(cols[col], ref_a), (name, col)
            ref = ref_power_residual(A, Ah, 0.5)
            check = validate_power_residual(Dm, 0.7, Ah, 0.5)
            got = (check.max_residual, check.fraction_within)
            assert repr(got) == repr(ref_power_summary(ref, check.bound)), name
            cols = band_columns("jl-power", Dm, Ah, 0.5, bound=check.bound)
            assert same(cols["residual"], ref), name
            assert same(cols["violated"], ref > check.bound), name


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
