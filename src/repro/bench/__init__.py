"""Shared harness for the benchmark suite (one module per table/figure).

:func:`repro.bench.experiments.grid` runs a spec once per option set and
caches the results, so the three figures that share a grid (e.g. 9/10/11
all come from the composite-maintenance grid) only pay for it once;
:mod:`repro.bench.reporting` renders and persists the tables.
"""
