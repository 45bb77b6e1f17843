"""The verification sweeps over the whole supported range."""

from calamity.core import MAX_YEAR, MIN_YEAR
from calamity.verify import differential_sweep


def test_differential_sweep_full_range():
    # Every date from 1583-01-01 through 9999-12-31 through all four routes.
    result = differential_sweep(MIN_YEAR, MAX_YEAR)
    assert result.cases == 3_074_246
    assert result.failure_count == 0
    assert result.examples == ()
