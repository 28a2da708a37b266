import numpy as np
import pytest
from hypothesis import strategies as st

import sparsegrids as sg


@pytest.fixture(scope="session")
def smolyak_cc_unit_w3():
    """The reference Smolyak grid: N=2, w=3, Clenshaw-Curtis on [0,1]^2."""
    rule, level_map = sg.preset("SM")
    grid = sg.build_sparse_grid_from_rule(2, 3, sg.cc_family(0.0, 1.0), level_map, rule)
    return grid, sg.reduce_grid(grid)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@st.composite
def downward_closed_sets(draw, max_dim=4, max_extra=12):
    """Random downward-closed sets grown from the root by margin additions."""
    dim = draw(st.integers(1, max_dim))
    s = sg.MultiIndexSet([(1,) * dim])
    for pick in draw(st.lists(st.integers(0, 10**6), max_size=max_extra)):
        margin = list(sg.reduced_margin(s))
        s = s.union([margin[pick % len(margin)]])
    return s
