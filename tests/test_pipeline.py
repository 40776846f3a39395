import numpy as np
import pytest

import dissimjl
from dissimjl import (
    METHODS,
    ProjectionConfig,
    SimplexSpec,
    gen_simplex,
    run_projection,
)


def test_every_exported_name_resolves():
    missing = [name for name in dissimjl.__all__ if not hasattr(dissimjl, name)]
    assert missing == []


@pytest.mark.parametrize("method", METHODS)
def test_coords_match_route_branch(method):
    D = gen_simplex(SimplexSpec(30, seed=1))
    res = run_projection(D, method, ProjectionConfig(seed=3))
    if method == "jl-pq":
        expected = np.hstack([res.projected.pos_coords, res.projected.neg_coords])
    elif method == "jl-power":
        expected = res.projected.centers
    else:
        expected = res.projected
    assert np.array_equal(res.coords, expected)
    assert res.coords.shape[0] == 30

