"""Weekday computation by table lookup.

The package carries two interchangeable routes to the weekday of any
Gregorian date from 1583 through 9999 and the machinery to prove they
agree:

* the classic arithmetic route, century anchor plus a per-year formula
  plus a per-month anchor date,
* a pure lookup route that replaces the year formula with a navigable
  16-row table and the month dates with two-digit gap codes that can be
  applied forward or backward,
* a day-counting oracle, an anchor-system classifier, self-verification
  sweeps, and operation-count metrics comparing the two routes.

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
    MonthGrouping,
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

__all__ = [
    "ANCHOR_YEARS",
    "AnchorSystem",
    "CENTURY_ANCHORS",
    "CheckResult",
    "ComparisonReport",
    "DOOMSDAY_DATES",
    "Date",
    "Direction",
    "Doomyear",
    "GapPair",
    "LEAP_OVERRIDES",
    "MAX_YEAR",
    "MIN_YEAR",
    "MethodProfile",
    "MonthGrouping",
    "NotUniformError",
    "OpEvent",
    "OpKind",
    "PackedYearCodes",
    "StepTrace",
    "VectorCode",
    "VerificationSummary",
    "Weekday",
    "anchor_years",
    "century_anchor",
    "classify",
    "code_vocabulary",
    "compare",
    "doomsday_date",
    "doomyear",
    "gaps",
    "is_leap",
    "iter_dates",
    "month_groupings",
    "month_length",
    "nearest_anchor",
    "oracle_weekday",
    "rotate_code",
    "square_knot_backward",
    "square_knot_forward",
    "system",
    "trace_calamity",
    "trace_standard",
    "vector_code",
    "verify_range",
    "weekday_calamity",
    "weekday_calamity_backward",
    "weekday_calamity_traced",
    "weekday_standard",
    "year_offset_arithmetic",
    "year_offset_doomyear",
    "zero_month_count",
]
