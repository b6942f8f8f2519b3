"""Counting simple rerouting paths consistent with an adversary observation.

This module answers the combinatorial question at the heart of the paper's
threat model:

    Given everything the adversary observed about one message (the path
    fragments reported by compromised nodes, the receiver's report of its
    predecessor, and the silence of the remaining compromised nodes), how many
    rerouting paths of length ``l`` starting at candidate sender ``i`` could
    have produced exactly that observation?

For the system model of the paper a rerouting path of length ``l`` is an
ordered sequence of ``l`` *distinct* intermediate nodes drawn from the
``N - 1`` nodes other than the sender (the receiver is outside the node set).
The observation pins some of those positions:

* each :class:`~repro.combinatorics.fragments.Fragment` must appear as a
  contiguous block, and the fragments must appear in their observed order;
* if the first fragment's leading node equals the candidate sender, that
  fragment is anchored at the start of the path (the compromised node saw the
  sender directly);
* the receiver's report anchors the identity of the final intermediate node;
* compromised nodes that reported silence must not appear anywhere.

Counting the completions is a classic "blocks and free slots" arrangement
problem: distribute the unconstrained positions into the gaps left by the
anchored blocks (a stars-and-bars count) and fill them with distinct nodes
from the free pool (a falling factorial).  Both factors are exact integers, so
likelihood ratios computed from them are exact up to the final floating-point
division.

Consumers: :class:`repro.adversary.inference.BayesianPathInference` evaluates
these counts per observation (the ``event`` engine), and the vectorized batch
classifier for ``C > 1`` (:mod:`repro.batch.multiclass`) evaluates them once
per canonical observation class and amortises the result over every trial in
the class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.combinatorics.fragments import FragmentSet
from repro.utils.mathx import compositions_count, falling_factorial

__all__ = ["ArrangementProblem", "count_arrangements", "total_paths"]


def total_paths(n_nodes: int, length: int) -> int:
    """Total number of simple rerouting paths of ``length`` intermediate nodes.

    The sender is fixed; intermediates are an ordered selection of distinct
    nodes from the remaining ``n_nodes - 1``, hence a falling factorial.
    """
    return falling_factorial(n_nodes - 1, length)


def count_arrangements(
    n_nodes: int,
    candidate_sender: int,
    length: int,
    observation: FragmentSet,
) -> int:
    """Count length-``length`` simple paths from ``candidate_sender`` consistent with ``observation``.

    Returns an exact integer count.  A return value of zero means the
    candidate cannot have produced the observation with a path of that length.
    The function is purely combinatorial: policy questions such as "would a
    compromised sender have betrayed itself?" belong to the inference engine,
    not here.
    """
    if observation.observed_sender is not None:
        # The origin was directly observed; only that node can be the sender
        # and, conditioned on it, any path completion is consistent with the
        # origin report itself.  Remaining fragment constraints still apply.
        if candidate_sender != observation.observed_sender:
            return 0

    # ---------------------------------------------------------------- #
    # Degenerate case: a direct path with no intermediate nodes.        #
    # ---------------------------------------------------------------- #
    if length == 0:
        if observation.fragments:
            return 0
        if observation.last_intermediate is not None:
            # The receiver's predecessor was the sender itself.
            return 1 if observation.last_intermediate == candidate_sender else 0
        return 1

    # ---------------------------------------------------------------- #
    # Build the ordered blocks of pinned intermediate nodes.            #
    # ---------------------------------------------------------------- #
    blocks: list[tuple[int, ...]] = []
    start_anchored = False
    for index, fragment in enumerate(observation.fragments):
        nodes = fragment.nodes
        if nodes[0] == candidate_sender:
            # The fragment's leading node is the candidate sender: the block
            # of intermediates starts right after it and must sit at the very
            # beginning of the path.  Only the first fragment may do this.
            if index != 0:
                return 0
            nodes = nodes[1:]
            start_anchored = True
            if not nodes:
                return 0
        elif candidate_sender in nodes:
            # The candidate would have to appear as an intermediate node,
            # impossible on a simple path.
            return 0
        blocks.append(tuple(nodes))

    end_anchored = False
    last_fragment_at_receiver = bool(
        observation.fragments and observation.fragments[-1].ends_at_receiver
    )
    if last_fragment_at_receiver:
        end_anchored = True
        if (
            observation.last_intermediate is not None
            and observation.last_intermediate != blocks[-1][-1]
        ):
            return 0
    elif observation.last_intermediate is not None:
        last = observation.last_intermediate
        if last == candidate_sender:
            # The last intermediate cannot be the sender on a path of
            # positive length.
            return 0
        appears_in_block = any(last in block for block in blocks)
        if appears_in_block:
            # The reported last intermediate is only consistent if it is the
            # trailing node of the final block, which then sits at the end.
            if blocks and blocks[-1] and blocks[-1][-1] == last:
                end_anchored = True
            else:
                return 0
        else:
            if last in observation.absent_nodes:
                return 0
            blocks.append((last,))
            end_anchored = True

    # ---------------------------------------------------------------- #
    # Free positions and the pool of nodes allowed to fill them.        #
    # ---------------------------------------------------------------- #
    pinned_nodes: set[int] = set()
    for block in blocks:
        pinned_nodes.update(block)
    pinned_count = sum(len(block) for block in blocks)
    free_positions = length - pinned_count
    if free_positions < 0:
        return 0

    excluded = set(pinned_nodes)
    excluded.add(candidate_sender)
    excluded.update(observation.absent_nodes)
    pool_size = n_nodes - len(excluded)
    if pool_size < 0:
        pool_size = 0

    # ---------------------------------------------------------------- #
    # Arrange: compositions of the free positions into available gaps,  #
    # times ordered selections of free nodes.                           #
    # ---------------------------------------------------------------- #
    units = len(blocks)
    available_gaps = units + 1
    if start_anchored:
        available_gaps -= 1
    if end_anchored:
        available_gaps -= 1
    if available_gaps < 0:
        # Start- and end-anchoring a single block of exactly the path length.
        available_gaps = 0

    gap_count = compositions_count(free_positions, available_gaps)
    if gap_count == 0:
        return 0
    fillings = falling_factorial(pool_size, free_positions)
    return gap_count * fillings


@dataclass(frozen=True)
class ArrangementProblem:
    """A reusable handle on one consistency-counting problem.

    Bundles the system size with an observation so that likelihoods for many
    candidate senders and lengths can be requested without repeating the
    arguments.  Used by the inference engine and handy in tests.
    """

    n_nodes: int
    observation: FragmentSet

    def count(self, candidate_sender: int, length: int) -> int:
        """Exact number of consistent paths for the candidate and length."""
        return count_arrangements(
            self.n_nodes, candidate_sender, length, self.observation
        )

    def likelihood(self, candidate_sender: int, length: int) -> float:
        """``Pr[observation | sender, length]`` under uniform path selection."""
        total = total_paths(self.n_nodes, length)
        if total == 0:
            return 0.0
        return self.count(candidate_sender, length) / total
