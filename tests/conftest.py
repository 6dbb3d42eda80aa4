"""Shared test support: the per-(n, d) table caches, and their release after
every stretch test."""

import pytest

from altschur import algebra, enumeration, koszul

# the lru_caches behind the integer tables; a test that forces a sign or a
# factor in a table fill clears them before and after, so that no table is
# read that was built with a different rule
_TABLE_CACHES = (
    algebra._symbols, algebra._odd_margins, algebra._relabellings, algebra._left_dicts, algebra._even_dicts,
    algebra._iota_indices, algebra._right_dicts, algebra._odd_dicts,
)


def _clear(*caches):
    for cache in caches:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _release_stretch_cells(request):
    """After a stretch test, drop every per-(n, d) lru_cache and convolve's
    slice tables, so that one process running the stretch suite holds the
    tables of one cell at a time and not those of every cell it has passed."""
    yield
    if request.node.get_closest_marker("stretch"):
        _clear(
            *_TABLE_CACHES, koszul._generators, enumeration.enum_M, enumeration.enum_N, enumeration.graph_index,
            algebra._tables,
        )
