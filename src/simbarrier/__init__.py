"""Barrier certificate synthesis from simulations, with rigorous
interval verification."""

import os

# one OpenBLAS thread unless the user set a count: the LP's products are
# small, and spinning threads contend with any other busy process; numpy
# reads the variable when it is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .engine import RunConfig, RunReport, RunStatus, run
from .model import (
    Box,
    Problem,
    Segment,
    Template,
    bloat,
    load_problem,
    make_template,
    vertices,
)
from .verify import Verdict, VerdictStatus
from .verify import verify as verify_certificate

__all__ = [
    "Box",
    "Problem",
    "RunConfig",
    "RunReport",
    "RunStatus",
    "Segment",
    "Template",
    "Verdict",
    "VerdictStatus",
    "bloat",
    "load_problem",
    "make_template",
    "run",
    "verify_certificate",
    "vertices",
]
