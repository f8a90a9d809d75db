import pytest

from linkgraph.errors import (
    FitConvergenceError,
    PowerLawFitError,
    UndefinedStatisticError,
    value_or_note,
)


def _raise(exc):
    raise exc


def test_value_passes_through_with_no_note():
    assert value_or_note(divmod, 7, 2) == ((3, 1), None)
    assert value_or_note(int, "ff", base=16) == (255, None)


@pytest.mark.parametrize(
    "exc",
    [
        UndefinedStatisticError("ratio denominator mean is zero"),
        PowerLawFitError("no viable lower cutoff for fitting"),
        FitConvergenceError("no bracket"),  # a PowerLawFitError too
    ],
)
def test_undefined_statistic_and_failed_fit_become_notes(exc):
    assert value_or_note(_raise, exc) == (None, str(exc))


def test_other_errors_propagate():
    with pytest.raises(ValueError, match="not a note"):
        value_or_note(_raise, ValueError("not a note"))
