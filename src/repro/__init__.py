"""repro — a reproduction of the STRIP rule system (SIGMOD 1997).

STRIP (the STanford Real-time Information Processor) is a main-memory soft
real-time DBMS whose rule system extends SQL3-style triggers with **unique
transactions**: decoupled, delayable rule actions whose bound tables batch
changes across transaction boundaries, partitioned by a tunable unit of
batching (``unique on`` columns).  This package implements the rule system
and every substrate it needs — storage engine, lock manager, SQL subset,
task scheduler, virtual-time simulator — plus the paper's program-trading
evaluation workload and benchmark harness.

Quick start::

    from repro import Database

    db = Database()
    db.execute("create table x (a text, b real)")
    ...

See README.md and DESIGN.md for the full tour.
"""

from repro.core.functions import FunctionContext
from repro.core.net_effect import NetChange, net_effect
from repro.core.rules import Rule
from repro.database import Database
from repro.errors import StripError
from repro.sim.costmodel import CostModel
from repro.sim.simulator import Simulator
from repro.storage.schema import Column, ColumnType, Schema
from repro.txn.tasks import Task

__version__ = "1.0.0"

__all__ = [
    "Column",
    "ColumnType",
    "CostModel",
    "Database",
    "FunctionContext",
    "NetChange",
    "Rule",
    "Schema",
    "Simulator",
    "StripError",
    "Task",
    "net_effect",
    "__version__",
]
