"""Tiled O(n^2) passes against the whole-matrix formulas they replaced.

Each reference, below or in conftest, is the whole-matrix formula the
library used before its passes ran in row tiles and square blocks.  The
tile constants are patched small so every size in SIZES starts, ends or
straddles a tile and a block edge, and every output must match its
reference bit for bit: the per-tile band columns match the whole band
arrays, and the bound checks' summaries the reductions of those arrays.

The one exception is squared distances, which come from one Gram
product per band of _BLOCK rows rather than from a whole one: jl-pq's
smaller signature part, ``squared_distances`` and every route's
reconstruction.  They match ``band_distances`` below bit for bit, and
the whole-matrix oracle within ULPS units of rounding.  jl-pq's band
takes P - Q as D, so its violation flags differ from the whole-matrix
oracle's only on pairs within that bound, widened by the embedding's own
rounding of D, of a band edge; its exclusions never differ.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from dissimjl import (
    METHODS,
    BallSpec,
    DissimilarityError,
    ProjectionConfig,
    SimplexSpec,
    center_gram,
    decompose,
    decompose_power,
    embed_pq,
    gen_balls,
    gen_simplex,
    project,
    reconstruct,
    relative_error_stats,
    run_projection,
    squared_distances,
    validate_matrix,
    validate_power_residual,
    validate_pq_bound,
)
from dissimjl import core
from dissimjl.cli import write_matrix
from dissimjl.evaluate import _band_tiles

from conftest import (
    band_columns,
    copy_cases,
    in_place_lapack,
    one_part_euclidean,
    random_hollow,
    ref_power_residual,
    ref_power_summary,
    ref_pq_bound,
    ref_pq_summary,
    ref_squared_distances,
    ref_validate,
    whole_euclidean,
)

pytestmark = pytest.mark.one_blas_thread

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


def band_euclidean(A, emb):
    """P + Q as the jl-pq band pass forms it, from ``band_distances``."""
    return one_part_euclidean(A, emb, band_distances)


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
    """jl-pq's band products and flags against the whole-matrix oracle.

    The band products of both parts must lie within tol = ULPS eps
    (|x_i|^2 + |x_j|^2 + |D_ij|) of whole P and Q, with x_i point i's
    coordinates in both parts.  The exclusions must agree on every pair.
    The violation flags must agree on every pair except where Dhat is
    within tol + epsilon |D - (P - Q)| of an oracle band edge: the band
    pass reads D for P - Q, which the embedding reproduces to rounding.
    """
    iu = np.triu_indices(A.shape[0], 1)
    P = ref_squared_distances(emb.pos_coords)[iu]
    Q = ref_squared_distances(emb.neg_coords)[iu]
    s = np.einsum("ij,ij->i", emb.coords, emb.coords)
    tol = ULPS * np.finfo(float).eps * (s[iu[0]] + s[iu[1]] + np.abs(A[iu]))
    p, q = (np.concatenate(list(core._upper_distances(X)))
            for X in (emb.pos_coords, emb.neg_coords))
    assert np.all(np.abs(p - P) + np.abs(q - Q) <= tol)
    _, lower, upper, violated, excluded = ref_pq_bound(
        A, emb, Ah, epsilon, whole_euclidean)
    assert np.array_equal(np.isinf(cols["factor"]), excluded)
    dh = Ah[iu]
    edge = tol + epsilon * np.abs(A[iu] - (P - Q))
    with np.errstate(invalid="ignore"):  # inf - inf on the noisy entries
        tie = (np.abs(dh - lower) <= edge) | (np.abs(dh - upper) <= edge)
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
def test_validate_views_canonical_input_and_copies_the_rest(tiles, n):
    # the blocks are compared bit for bit before any copy is formed, and
    # a copy taken at a later block holds the earlier, equal ones already
    tiles(n)
    raw = random_hollow(np.random.default_rng(0), n)
    out = validate_matrix(raw).entries
    assert np.shares_memory(out, raw) and not out.flags.writeable
    assert same(out, ref_validate(raw))
    for case, (raw, expected) in copy_cases(n).items():
        out = validate_matrix(raw).entries
        assert not np.shares_memory(out, raw), case
        assert out.flags.c_contiguous and not out.flags.writeable, case
        assert same(out, expected), case
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
            ref = ref_pq_bound(A, emb, Ah, 0.5, band_euclidean)
            check = validate_pq_bound(_band_tiles("jl-pq", Dm, Ah, 0.5, emb=emb))
            got = (check.violation_rate, check.excluded_pairs)
            assert repr(got) == repr(ref_pq_summary(*ref[3:])), name
            cols = band_columns("jl-pq", Dm, Ah, 0.5, emb=emb)
            for col, ref_a in zip(PQ_COLUMNS, ref):
                assert same(cols[col], ref_a), (name, col)
            assert_pq_near_whole(A, emb, Ah, 0.5, cols)
            ref = ref_power_residual(A, Ah, 0.5)
            bound = 4.0 * 0.5 * 0.7**2  # the slack 4 eps r^2 at r = 0.7
            check = validate_power_residual(
                _band_tiles("jl-power", Dm, Ah, 0.5, bound=bound), bound)
            got = (check.max_residual, check.fraction_within)
            assert repr(got) == repr(ref_power_summary(ref, check.bound)), name
            cols = band_columns("jl-power", Dm, Ah, 0.5, bound=check.bound)
            assert same(cols["residual"], ref), name
            assert same(cols["violated"], ref > check.bound), name


@pytest.mark.parametrize("kind", ["simplex", "balls"])
def test_pq_band_pass_at_full_block_size(kind, monkeypatch):
    # bands of the default 256 rows, the last one of 32: the products are
    # real GEMMs.  The balls' exact-zero pairs are excluded by D alone,
    # so however the products round, no exclusion moves
    n = 800
    Dm = gen_simplex(SimplexSpec(n)) if kind == "simplex" else gen_balls(BallSpec(n, seed=1))
    A = Dm.entries
    emb = embed_pq(decompose(center_gram(Dm)))
    Ah = noisy(A, n)
    ref = ref_pq_bound(A, emb, Ah, 0.5, band_euclidean)
    for entries in (core._TILE_ENTRIES, 7 * n):  # tiles of 81 and 7 rows
        monkeypatch.setattr(core, "_TILE_ENTRIES", entries)
        cols = band_columns("jl-pq", Dm, Ah, 0.5, emb=emb)
        for col, ref_a in zip(PQ_COLUMNS, ref):
            assert same(cols[col], ref_a), (entries, col)
        assert_pq_near_whole(A, emb, Ah, 0.5, cols)


def test_pq_bound_pass_holds_no_square_array():
    # one band product of 256 x n doubles (2 MiB at n = 1024), of the
    # smaller signature part, and a few tile vectors; the whole Gram
    # products took 16 MiB
    n = 1024
    Dm = gen_balls(BallSpec(n, seed=1))
    emb = embed_pq(decompose(center_gram(Dm)))
    assert emb.q > 0
    Dhat = reconstruct(emb)
    tracemalloc.start()
    try:
        validate_pq_bound(_band_tiles("jl-pq", Dm, Dhat, 0.5, emb=emb))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.7 * n * n * 8


def test_validate_holds_no_square_array_on_canonical_input():
    # per 256 x 256 block the gap, the average and their bit comparisons
    # (0.20 of an n x n array at n = 1024); the symmetrized copy took 1.20
    n = 1024
    raw = np.array(gen_simplex(SimplexSpec(n)).entries)
    tracemalloc.start()
    try:
        out = validate_matrix(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(out.entries, raw)
    assert peak < 0.25 * n * n * 8


def test_matrix_writer_holds_no_square_array(tmp_path):
    # 4,096 values (4 rows at n = 1024) at a time: their digits, text rows,
    # mask rows and float temporaries (0.17-0.18 of an n x n array); 8,192-value
    # blocks held 0.35
    n = 1024
    D = gen_balls(BallSpec(n, seed=1))
    tracemalloc.start()
    try:
        write_matrix(str(tmp_path / "balls.csv"), D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * n * 8


@in_place_lapack
def test_factorizations_hold_no_square_array():
    # balls take decompose's full branch: dsytrd, dormtr and dpotrf run in
    # B's own buffer, the descending order is a reversed view of B's rows,
    # and the centers are B: what is left beside the factors decompose
    # returns (its column gathers, 1.00 of an n x n array at n = 1024) is a
    # tile of the input checks (0.03 to 0.14), where eigh's output and the
    # U[:, order] copy took 2.0.  The full branch's LAPACK workspace comes
    # from the C heap, as LAPACKE's own did, and eigvalsh's transient copy
    # of B for decompose_power's spectrum is malloc'd inside numpy's
    # linalg: both are out of tracemalloc's view
    n = 1024
    for build in (decompose, decompose_power):
        B = center_gram(gen_balls(BallSpec(n, seed=1)))
        tracemalloc.start()
        try:
            out = build(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factors = (out if build is decompose else out[0]).factors or ()
        assert peak <= 0.2 * n * n * 8 + sum(part.nbytes for part in factors)


def test_spectrum_alone_copies_a_read_only_b_once():
    # the spectrum alone never writes B, so a read-only view is read where
    # it is, and eigvalsh's one copy of it is malloc'd inside numpy's linalg:
    # a tile of the input checks is left (0.13 of an n x n array at n =
    # 1024), where a copy of B for the in-place solvers made it 1.13
    n = 1024
    B = center_gram(gen_balls(BallSpec(n, seed=1)))
    view = B.view()
    view.flags.writeable = False
    tracemalloc.start()
    try:
        dec = decompose(view, vectors=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(dec.eigenvalues, np.linalg.eigvalsh(B.T)[::-1])
    assert peak <= 1.05 * n * n * 8


@pytest.mark.parametrize("method", METHODS)
def test_run_projection_keeps_no_copy_of_canonical_input(method):
    # a raw canonical array is validated as a view, so the run holds three
    # n x n arrays at its peak (2.94 to 3.02 at n = 1024), where the
    # symmetrized copy made four
    n = 1024
    raw = np.array(gen_simplex(SimplexSpec(n)).entries)
    tracemalloc.start()
    try:
        run_projection(raw, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * n * n * 8


def test_singular_radius_run_frees_b_before_scoring():
    # jl-power at r = 0 on low-rank Euclidean input takes the pivoted
    # Cholesky factor of B, 6 columns wide with the lifted all-ones one,
    # which is copied out of B's buffer, so B goes once the run drops it:
    # 1.95 arrays at n = 1024, where a view of the factor would hold all of
    # B through scoring
    n = 1024
    raw = squared_distances(np.random.default_rng(0).standard_normal((n, 5)))
    tracemalloc.start()
    try:
        res = run_projection(raw, "jl-power")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.representation.radius == 0.0 and res.representation.p == 6
    assert peak < 2.1 * n * n * 8


@pytest.mark.parametrize("method", ["jl", "jl-pq"])
def test_sliced_low_rank_run_frees_b_before_scoring(method):
    # points in R^5 take the slice, and their 5-column factor is copied out
    # of B's buffer, so B goes once the run drops it: 1.95 arrays at n =
    # 1024, where a view of the factor held all of B through scoring (2.95)
    n = 1024
    raw = squared_distances(np.random.default_rng(0).standard_normal((n, 5)))
    tracemalloc.start()
    try:
        res = run_projection(raw, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.embedding.p == 5
    assert peak < 2.1 * n * n * 8


def test_pq_reconstruct_holds_one_square_array():
    # D-hat, one band product of 256 x n doubles (a quarter of D-hat at
    # n = 1024) and a few tile vectors: 1.41 D-hat, where a whole Q took
    # 2.26
    n = 1024
    emb = embed_pq(decompose(center_gram(gen_balls(BallSpec(n, seed=1)))))
    projected = project(emb, ProjectionConfig())
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
