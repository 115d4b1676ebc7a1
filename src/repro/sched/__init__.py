"""Schedulers and resiliency built on Snapify's swap/migrate primitives."""

from .faults import FaultInjector
from .interval import daly_interval, expected_completion_time, young_interval
from .predictor import ProactiveMigrator
from .resilient import ResilientRunner
from .scheduler import SwapScheduler, TenantJob

__all__ = [
    "FaultInjector",
    "ProactiveMigrator",
    "ResilientRunner",
    "SwapScheduler",
    "TenantJob",
    "daly_interval",
    "expected_completion_time",
    "young_interval",
]
