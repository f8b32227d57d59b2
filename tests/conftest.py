"""Shared fixtures."""

import pytest

from fracorder import orderest, tikhonov

FIT_CACHES = (tikhonov._standard_form, tikhonov._weighted_terms, orderest._probe_table)


def clear_fit_caches():
    for cache in FIT_CACHES:
        cache.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty the per-(basis, grid) caches; the fixture value empties them again."""
    clear_fit_caches()
    return clear_fit_caches
