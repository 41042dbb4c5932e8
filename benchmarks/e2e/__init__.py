"""Wall-clock end-to-end benchmark of the STRIP reproduction.

Four seeded workloads, each timed over several repetitions on a fresh
``Database`` and verified by the convergence oracle; one extra traced
repetition splits the cost by layer.  See README.md in this directory.
"""
