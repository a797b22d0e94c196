"""CloudyBench core: workloads, evaluators, metrics, and the testbed.

Public entry points:

* :class:`~repro.core.runner.CloudyBench` -- the end-to-end testbed.
* :class:`~repro.core.config.BenchConfig` -- the props file.
* :mod:`repro.core.workload` -- T1-T4 and the throughput patterns.
* The evaluators: elasticity, multi-tenancy, fail-over, lag time.
* :mod:`repro.core.metrics` -- the PERFECT scores and the O-Score.
"""

from repro.core.config import BenchConfig
from repro.core.datagen import DataGenerator, load_sales_database, nominal_bytes
from repro.core.evalapi import (
    EvalOption,
    EvalOutcome,
    EvaluatorSpec,
    evaluator_names,
    evaluator_specs,
    get_evaluator,
)
from repro.core.elasticity import ELASTIC_PATTERNS, ElasticityEvaluator
from repro.core.failover import FailOverEvaluator
from repro.core.lagtime import LagTimeEvaluator
from repro.core.manager import WorkloadManager
from repro.core.metrics import PerfectScores, o_score
from repro.core.multitenancy import TENANCY_PATTERNS, MultiTenancyEvaluator
from repro.core.runner import CloudyBench
from repro.core.summary import generate_report
from repro.core.schema import create_sales_schema
from repro.core.sqlreader import SqlReader, SqlStmts
from repro.core.workload import (
    LAG_PATTERNS,
    READ_ONLY,
    READ_WRITE,
    THROUGHPUT_PATTERNS,
    WRITE_ONLY,
    SalesWorkload,
    TransactionMix,
)

__all__ = [
    "BenchConfig",
    "CloudyBench",
    "DataGenerator",
    "ELASTIC_PATTERNS",
    "ElasticityEvaluator",
    "EvalOption",
    "EvalOutcome",
    "EvaluatorSpec",
    "evaluator_names",
    "evaluator_specs",
    "get_evaluator",
    "FailOverEvaluator",
    "LAG_PATTERNS",
    "LagTimeEvaluator",
    "MultiTenancyEvaluator",
    "PerfectScores",
    "READ_ONLY",
    "READ_WRITE",
    "SalesWorkload",
    "SqlReader",
    "SqlStmts",
    "TENANCY_PATTERNS",
    "THROUGHPUT_PATTERNS",
    "TransactionMix",
    "WRITE_ONLY",
    "WorkloadManager",
    "create_sales_schema",
    "load_sales_database",
    "nominal_bytes",
    "generate_report",
    "o_score",
]
