"""Weekday computation by table lookup.

The package carries four independent routes to the weekday of any
Gregorian date from 1583 through 9999 and the machinery to prove they
agree:

* ``oracle_weekday``, a day count from the Tuesday 2000-04-04,
* ``weekday_standard``, the classic arithmetic route: century anchor
  plus a per-year formula plus a per-month anchor date,
* ``weekday_calamity``, a pure lookup route that replaces the year
  formula with a navigable 16-row table and the month dates with
  two-digit gap codes, applied forward,
* ``weekday_calamity_backward``, the same lookups with the gap codes
  applied backward.

Around them sit an anchor-system classifier, self-verification sweeps,
and operation-count metrics comparing the arithmetic and lookup routes.

Weekdays are numbered 0 = Sunday through 6 = Saturday.
"""

from .conway import (
    CENTURY_ANCHORS,
    DOOMSDAY_DATES,
    LEAP_OVERRIDES,
    century_anchor,
    doomsday_date,
    weekday_standard,
    year_offset_arithmetic,
)
from .core import (
    MAX_YEAR,
    MIN_YEAR,
    Date,
    Direction,
    Weekday,
    is_leap,
    iter_dates,
    month_length,
    oracle_weekday,
)
from .doomyears import (
    ANCHOR_YEARS,
    Doomyear,
    PackedYearCodes,
    anchor_years,
    doomyear,
    nearest_anchor,
    year_offset_doomyear,
)
from .method import StepTrace, weekday_calamity, weekday_calamity_backward, weekday_calamity_traced
from .metrics import (
    ComparisonReport,
    MethodProfile,
    OpEvent,
    OpKind,
    compare,
    trace_calamity,
    trace_standard,
)
from .systems import (
    AnchorSystem,
    NotUniformError,
    classify,
    month_groupings,
    rotate_code,
    system,
    zero_month_count,
)
from .vector import (
    GapPair,
    VectorCode,
    code_vocabulary,
    gaps,
    square_knot_backward,
    square_knot_forward,
    vector_code,
)
from .verify import CheckResult, VerificationSummary, verify_range

__version__ = "0.1.0"

# The imports above are the one declaration of the public API: export
# every public name they bind, sorted, except the submodules themselves.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(core))
)
