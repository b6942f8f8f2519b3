"""Anonymity metrics beyond the paper's ``H*(S)``.

The paper measures anonymity as the expected Shannon entropy of the
adversary's posterior (the *anonymity degree*).  The strategy comparison,
the overhead trade-off and the e-voting example also report it on a common
scale:

* **normalized degree of anonymity** (Diaz et al. / Serjantov & Danezis):
  ``H / log2(N)`` in ``[0, 1]``.
"""

from __future__ import annotations

import math

__all__ = ["normalized_degree"]


def normalized_degree(entropy_bits_value: float, n_nodes: int) -> float:
    """Anonymity degree normalised by its maximum ``log2(N)``."""
    if n_nodes <= 1:
        return 0.0
    return entropy_bits_value / math.log2(n_nodes)
