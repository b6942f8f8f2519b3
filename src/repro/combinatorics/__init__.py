"""Counting substrate for exact Bayesian inference over rerouting paths.

The adversary of the paper observes *fragments* of the rerouting path: every
compromised node on the path reports its predecessor and successor, and the
(compromised) receiver reports the last intermediate node.  Computing the
posterior probability that a given node is the sender requires counting, for
every candidate sender and every possible path length, how many rerouting
paths are consistent with the observed fragments.  This subpackage provides
that counting machinery:

* :mod:`repro.combinatorics.fragments` assembles raw per-node reports into
  ordered path fragments (maximal known contiguous runs of the path);
* :mod:`repro.combinatorics.arrangements` counts the simple paths of a given
  length that embed those fragments as blocks, which is exactly the likelihood
  numerator needed by :class:`repro.adversary.inference.BayesianPathInference`;
* :mod:`repro.combinatorics.walks` counts cycle-allowed paths (walks on the
  clique without self-loops), the counting substrate of the cycle-aware
  posterior for Crowds-style protocols.

The estimation engines stand on this substrate: the hop-by-hop ``event``
engine prices every sampled observation individually, while the vectorized
batch engines price each symmetric observation class exactly once through
the same counts — canonical observation classes on simple paths
(:mod:`repro.batch.multiclass`), walk-pattern classes on cycle paths
(:mod:`repro.batch.cycleengine`).
"""

from repro.combinatorics.arrangements import (
    ArrangementProblem,
    count_arrangements,
    total_paths,
)
from repro.combinatorics.fragments import Fragment, FragmentSet
from repro.combinatorics.walks import (
    clique_walks,
    normalized_clique_walks,
    total_cycle_paths,
)

__all__ = [
    "Fragment",
    "FragmentSet",
    "ArrangementProblem",
    "count_arrangements",
    "total_paths",
    "clique_walks",
    "normalized_clique_walks",
    "total_cycle_paths",
]
