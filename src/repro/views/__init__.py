"""Materialized views and automatic maintenance-rule generation.

The paper motivates STRIP's rule system with incremental view maintenance
and cites [CW91] for deriving maintenance rules automatically from view
definitions; its conclusion sketches, as future work, a view manager that
also derives the *unit of batching* and *delay window*.  This package
implements both:

* :mod:`repro.views.definition` — view definitions (SPJ + aggregation);
* :mod:`repro.views.maintain` — materialize a view into a standard table
  and generate STRIP rules that keep it maintained (incremental delta rules
  for distributive aggregates, recompute rules otherwise);
* :mod:`repro.views.advisor` — the future-work extension: pick batching
  unit and delay window from an update rate, a fan-out and two costs the
  caller measured (``examples/view_advisor.py``).
"""

from repro.views.advisor import AdvisorReport, BatchingAdvisor
from repro.views.definition import ViewDefinition
from repro.views.maintain import MaintenancePlan, materialize

__all__ = [
    "AdvisorReport",
    "BatchingAdvisor",
    "MaintenancePlan",
    "ViewDefinition",
    "materialize",
]
