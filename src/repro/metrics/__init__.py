"""Anonymity metrics derived from the anonymity degree ``H*(S)``."""

from repro.metrics.anonymity_metrics import normalized_degree

__all__ = ["normalized_degree"]
