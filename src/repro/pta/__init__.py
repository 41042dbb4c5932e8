"""The Program Trading Application (paper sections 3 and 4).

The PTA maintains three kinds of prices: stock prices (base data, driven by
a market feed), composite index prices (derived, incrementally maintainable,
high fan-in) and theoretical Black-Scholes option prices (derived,
non-incremental, high fan-out).  This package provides:

* :mod:`repro.pta.blackscholes` — the Appendix B pricing model;
* :mod:`repro.pta.trace` — a synthetic NYSE TAQ-style quote trace with
  Zipf-skewed per-stock activity and bursty arrivals (the substitution for
  the proprietary TAQ file; see DESIGN.md);
* :mod:`repro.pta.tables` — the six tables of section 3 populated per
  section 4.2, parameterized by :class:`~repro.pta.tables.Scale`;
* :mod:`repro.pta.rules` — the rule families ``do_comps1/2/3`` and
  ``do_options1/2/3`` with their user functions;
* :mod:`repro.pta.scaffold` — experiments as data: a
  :class:`~repro.pta.scaffold.Spec` per scenario, its declared metrics, and
  the one runner, ``spec.run(**options)``;
* :mod:`repro.pta.workload` — the single-view (Figures 9-14), cascade and
  deletion-heavy specs; :mod:`repro.pta.distributed` the replicated and
  networked ones.
"""

from repro.pta.blackscholes import call_price
from repro.pta.scaffold import Result, Spec
from repro.pta.tables import Scale, populate
from repro.pta.trace import QuoteEvent, TaqTraceGenerator
from repro.pta.workload import CASCADE, DELETION, VIEW

__all__ = [
    "CASCADE",
    "DELETION",
    "QuoteEvent",
    "Result",
    "Scale",
    "Spec",
    "TaqTraceGenerator",
    "VIEW",
    "call_price",
    "populate",
]
