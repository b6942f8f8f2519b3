"""The ``topology`` trial engine: vectorized estimation on arbitrary graphs.

The three clique engines (``five-class``, ``arrangement``, ``cycle``) all
rest on relabelling symmetry: honest identities are
interchangeable, so classes can be keyed by *pattern* instead of identity.
On a general topology that symmetry is gone — a star's hub and a leaf are
different worlds — so this engine takes the graph-general route.  At
construction it builds the
:class:`~repro.adversary.inference.TopologyClassTable` of the
:class:`~repro.core.topology.TopologyPathLaw` — the same table the
topology-aware Bayesian inference reads — and flattens every
``(sender, length, path)`` outcome into flat tables:

* one cumulative-probability ramp per sender, baking the law's exact
  probabilities (row-normalised transition walks for cycle paths,
  per-sender renormalised uniform simple paths) into an inverse CDF;
* each outcome's length and observation-class id: the class index the table
  recorded for that outcome, i.e. the position of its identity-carrying key
  (no canonical relabelling) in the joint table.  The engine derives no
  observation of its own;
* each class's exact score, priced in id order from the table's joint
  weights, so batch estimates and the exhaustive analyzer agree on every
  class entropy to floating point.

A chunk (:meth:`TopologyEngine.accumulate_chunk`) is then two bulk draws per
trial — a uniform sender and one uniform float that indexes the sender's
ramp — followed by one gather and one ``np.bincount``.  The draw count per
trial is fixed, part of the ``(seed -> bits)`` determinism contract.

The engine covers *both* path models on any connected non-clique topology at
any number of compromised nodes; construction cost is the path enumeration
(bounded by the law's per-(sender, length) cap), after which sampling is
O(log paths) per trial.  :meth:`TopologyEngine.exact_degree` exposes the
zero-variance degree of the underlying class table for parity tests and
experiments.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.adversary.inference import TopologyClassTable
from repro.batch.engine import ChunkClasses, TrialEngine
from repro.core.model import PathModel, SystemModel
from repro.core.topology import TopologyPathLaw
from repro.exceptions import ConfigurationError
from repro.routing.strategies import PathSelectionStrategy

__all__ = ["TopologyEngine"]


class TopologyEngine(TrialEngine):
    """Columnar Monte-Carlo kernel for any connected non-clique topology."""

    name = "topology"

    def __init__(
        self,
        model: SystemModel,
        strategy: PathSelectionStrategy,
        compromised: frozenset[int],
    ) -> None:
        super().__init__(model, strategy, compromised)
        if model.topology is None:
            raise ConfigurationError(
                "the topology engine needs a model that carries a topology; "
                "clique models run on the symmetry engines"
            )
        table_model = model.with_path_model(strategy.path_model).with_compromised(
            len(self.compromised)
        )
        law = TopologyPathLaw(
            model.topology,
            allow_cycles=strategy.path_model is PathModel.CYCLE_ALLOWED,
            length_probs=dict(self._distribution.items()),
        )
        self._table = TopologyClassTable(
            table_model, self._distribution, self.compromised, law=law
        )

        # Flatten every (sender, length, path) outcome into global parallel
        # arrays: a per-sender cumulative-probability ramp for inverse-CDF
        # sampling plus the outcome's length and the table's class index.
        outcomes = [law.entries(sender) for sender in range(model.n_nodes)]
        self._ramps: list[np.ndarray] = [
            np.fromiter(
                itertools.accumulate(probability for _, _, probability in entries),
                dtype=np.float64,
                count=len(entries),
            )
            for entries in outcomes
        ]
        self._offsets = np.cumsum(
            [0] + [len(entries) for entries in outcomes[:-1]], dtype=np.int64
        )
        self._entry_lengths = np.fromiter(
            (length for entries in outcomes for length, _, _ in entries),
            dtype=np.int64,
        )
        self._entry_keys = np.concatenate(self._table.outcome_classes)

        # Exact per-class scores, priced once by the table, in class index
        # order.
        self._scores = [(entropy, identified) for _, entropy, identified in self._table.prices]

    def accumulate_chunk(
        self, n_trials: int, generator: np.random.Generator
    ) -> tuple[int, ChunkClasses]:
        """Draw senders and ramp uniforms; gather outcomes; count class ids."""
        n = self.model.n_nodes
        senders = generator.integers(0, n, size=n_trials)
        draws = generator.random(n_trials)
        entry = np.empty(n_trials, dtype=np.int64)
        for sender in range(n):
            mask = senders == sender
            if not mask.any():
                continue
            ramp = self._ramps[sender]
            local = np.searchsorted(ramp, draws[mask], side="right")
            np.minimum(local, len(ramp) - 1, out=local)
            entry[mask] = self._offsets[sender] + local
        histogram = np.bincount(
            self._entry_keys[entry], minlength=len(self._scores)
        )
        classes: ChunkClasses = {}
        for key_id, count in enumerate(histogram):
            if count:
                entropy, identified = self._scores[key_id]
                classes[key_id] = (int(count), entropy, identified)
        return int(self._entry_lengths[entry].sum()), classes

    # ------------------------------------------------------------------ #
    # Exact results                                                       #
    # ------------------------------------------------------------------ #

    def exact_degree(self) -> float:
        """Zero-variance ``H*`` of the engine's class table (no sampling).

        Agrees with ``ExhaustiveAnalyzer.anonymity_degree`` on the same
        configuration to floating point; the topology parity tests pin the
        two to ``1e-10``.
        """
        return self._table.exact_degree()
