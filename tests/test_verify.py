"""The verification sweeps over the whole supported range."""

from calamity.core import MAX_YEAR, MIN_YEAR
from calamity.verify import MAX_EXAMPLES, _Recorder, differential_sweep


def test_differential_sweep_full_range():
    # Every date from 1583-01-01 through 9999-12-31 through all four routes.
    result = differential_sweep(MIN_YEAR, MAX_YEAR)
    assert result.cases == 3_074_246
    assert result.failure_count == 0
    assert result.examples == ()


def test_recorder_formats_only_the_examples_it_keeps():
    formatted = []

    class Probe:
        def __format__(self, spec):
            formatted.append(spec)
            return f"probe:{spec}"

    rec = _Recorder()
    rec.case(True, "{}", Probe())
    for _ in range(MAX_EXAMPLES + 3):
        rec.case(False, "case {:d}", Probe())
    result = rec.result("probe")
    assert (result.cases, result.failure_count) == (MAX_EXAMPLES + 4, MAX_EXAMPLES + 3)
    assert result.examples == ("case probe:d",) * MAX_EXAMPLES
    assert formatted == ["d"] * MAX_EXAMPLES
