"""Benchmark sweep presets and their embedded target values."""

import pytest

from fracorder.obsmodel import FdoKind
from fracorder.refvalues import SWEEP_IDS, expected_pair, sweep_cells
from fracorder.regbasis import initial_power_exponents
from fracorder.scenarios import sweep_basis_spec, sweep_observation, sweep_rows


def test_sweep_ids():
    assert SWEEP_IDS == (1, 2, 3)


@pytest.mark.parametrize("sweep_id,epsilons", [(1, (0.03, 0.3)), (2, (0.03, 0.3)), (3, (0.04, 0.4))])
def test_sweep_cells_cover_the_full_grid(sweep_id, epsilons):
    cells = sweep_cells(sweep_id)
    assert len(cells) == 54
    assert cells == tuple(sorted(cells))
    assert {c[0] for c in cells} == {k / 10 for k in range(1, 10)}
    assert {c[1] for c in cells} == {"N1", "N2", "N3"}
    assert {c[2] for c in cells} == set(epsilons)


def test_unknown_sweep_ids_are_rejected():
    with pytest.raises(KeyError, match="unknown sweep id"):
        sweep_cells(4)
    with pytest.raises(KeyError, match="unknown sweep id"):
        expected_pair(0, 0.5, "N1", 0.03)
    with pytest.raises(KeyError, match="unknown sweep id"):
        sweep_observation(7, 0.5, "N1", 0.03)
    with pytest.raises(KeyError, match="unknown sweep id"):
        sweep_basis_spec(7, 0.5, 0.002)


def test_expected_pair_spot_values():
    assert expected_pair(1, 0.5, "N1", 0.03) == (0.5017, 0.4804)
    assert expected_pair(3, 0.3, "N2", 0.4) == (0.2998, 0.2326)


def test_expected_pair_names_missing_cells():
    with pytest.raises(KeyError, match="no cell"):
        expected_pair(1, 0.5, "N1", 0.05)


def test_sweep_observation_kinds():
    assert sweep_observation(1, 0.5, "N1", 0.03).descriptor.kind is FdoKind.TYPE_I
    assert sweep_observation(2, 0.5, "N1", 0.03).descriptor.kind is FdoKind.TYPE_II
    obs3 = sweep_observation(3, 0.5, "N2", 0.04)
    assert obs3.descriptor.neg_orders == (0.1,)


def test_sweep_basis_seeds():
    assert sweep_basis_spec(1, 0.5, 0.002).power_exponents == initial_power_exponents(0.25)
    assert sweep_basis_spec(2, 0.5, 0.002).power_exponents == initial_power_exponents(0.25)
    assert sweep_basis_spec(3, 0.5, 0.002).power_exponents == initial_power_exponents(0.1)


def test_threads_filling_a_cold_cache_give_the_sequential_rows(cold_caches, monkeypatch):
    # consecutive cells share a basis, so the workers build the same cached
    # systems at the same time
    monkeypatch.setenv("FRACORDER_THREADS", "0")
    sequential = repr(sweep_rows(1))
    cold_caches()
    monkeypatch.setenv("FRACORDER_THREADS", "4")
    assert repr(sweep_rows(1)) == sequential
