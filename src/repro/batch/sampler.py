"""Bulk draws shared by the clique engines: lengths and compromised slots.

One trial of the single-compromised-node model is fully characterised by
three integers: the sender, the path length, and where — if anywhere — the
compromised node ``m`` sits on the path.  The engines draw all three *in
bulk*:

* senders are uniform over the ``N`` nodes (the paper's a-priori assumption);
* lengths come from :class:`InverseCdfDecoder`, a table-accelerated,
  bit-identical twin of the distribution's inverse-CDF batch sampler
  (:meth:`repro.distributions.base.PathLengthDistribution.sample_batch`);
* the position of ``m`` exploits the symmetry of uniform simple-path
  selection: conditioned on ``sender != m``, the compromised node is one of
  the ``N - 1`` non-sender nodes, and in a uniformly random ordered
  arrangement of ``l`` of them each position ``1..l`` contains ``m`` with
  probability ``1/(N-1)``.  Drawing one uniform *slot* ``s ∈ {0..N-2}`` and
  mapping ``s < l`` to position ``s + 1`` (otherwise "absent") therefore
  reproduces the exact joint law of the hop-by-hop path builder — without
  materialising any of the other ``l - 1`` node identities.

:func:`decode_slots` generalises the slot trick to ``C >= 0`` compromised
nodes: extend the rerouting path to a uniformly random permutation of all
``N - 1`` non-sender nodes (the first ``l`` entries *are* the path), and the
compromised nodes occupy ``C`` distinct, uniformly random slots of that
permutation.  Drawing ``C`` distinct slots — via the classic "draw
``r_j ∈ {0 .. N-2-j}`` and map to the ``r_j``-th untaken slot" decode — and
keeping those ``< l`` reproduces the exact joint law of the compromised
*position set*, again without materialising any honest node identity, and
at any path length: positions are plain integers, never bits of a mask.

Each engine consumes a fixed number of bulk draws from the generator per
chunk (senders, length uniforms, then its slot or hop columns), in a fixed
order, so results are deterministic under a fixed seed.  Bounded integer
draws are int32: below ``2**31`` numpy's bounded-integer path yields the
same values and leaves the generator in the same state as an int64 draw,
at half the memory.

:func:`chunk_buffer` hands out the per-thread arrays that the kernels
write their chunk temporaries into, so a chunk allocates little besides its
draws.  Its speed then does not depend on whether an earlier, larger array
was freed (which is what keeps the C allocator's freed pages around).
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.distributions.base import PathLengthDistribution

if TYPE_CHECKING:
    from numpy.typing import DTypeLike

__all__ = ["InverseCdfDecoder", "chunk_buffer", "decode_slots"]

_THREAD_BUFFERS = threading.local()


def chunk_buffer(name: str, n_trials: int, dtype: DTypeLike) -> np.ndarray:
    """This thread's scratch array ``name``: ``n_trials`` cells of ``dtype``.

    The array is reused from chunk to chunk, and grows when a chunk needs
    more cells, so a thread keeps its largest chunk's worth (about 3 MiB
    over every buffer at :data:`~repro.batch.engine.CHUNK_TRIALS`).  A
    handed-out buffer lives for one chunk on its thread: the
    next request for ``name`` on that thread returns the same cells, so a
    caller must be done with it by then.  Engines are shared between
    threads (:func:`~repro.batch.engine.shared_engine`), so the buffers are
    kept per thread, never per engine.
    """
    buffers = vars(_THREAD_BUFFERS)
    buffer = buffers.get(name)
    if buffer is None or buffer.size < n_trials or buffer.dtype != dtype:
        buffer = buffers[name] = np.empty(n_trials, dtype)
    return buffer[:n_trials]


class InverseCdfDecoder:
    """LUT-accelerated bulk inverse-CDF length decode, bit-identical to
    :meth:`~repro.distributions.base.PathLengthDistribution.sample_batch`.

    ``sample_batch`` binary-searches the whole cumulative table for every
    uniform.  Length supports are tiny (tens of entries), so almost every
    uniform can be resolved by one table gather instead: bucket the unit
    interval into ``2**12`` equal cells and precompute, per cell, the length
    every uniform in the cell must decode to.  A cell determines the length
    exactly when ``searchsorted`` returns the same index for both cell
    endpoints; cells that straddle a table boundary (at most ``support`` of
    the 4096) hold a sentinel instead, and their uniforms fall back to the
    *same* ``searchsorted`` call — so the decoded lengths are exactly
    ``sample_batch``'s.  The bucket index ``int(u * 2**12)`` is computed
    exactly — multiplying a float64 by a power of two only shifts its
    exponent — so no rounding can leak a uniform into the wrong cell.

    One ``generator.random(n)`` draw per chunk, identical to ``sample_batch``.
    Lengths are int32 whenever the support allows it.
    """

    _SCALE_BITS = 12

    def __init__(self, distribution: PathLengthDistribution) -> None:
        lengths, cumulative = distribution.cdf_table()
        self._cum = np.asarray(cumulative)
        dtype = np.int32 if max(lengths) < np.iinfo(np.int32).max else np.int64
        self._lengths = np.asarray(lengths, dtype=dtype)
        scale = 1 << self._SCALE_BITS
        self._scale = scale
        edges = np.searchsorted(
            self._cum, np.arange(scale + 1) / scale, side="left"
        )
        np.minimum(edges, len(self._lengths) - 1, out=edges)
        self._sentinel = int(self._lengths.min()) - 1
        self._table = np.where(
            edges[:-1] == edges[1:], self._lengths[edges[:-1]], self._sentinel
        )

    def decode(self, n_trials: int, generator: np.random.Generator) -> np.ndarray:
        """Draw ``n_trials`` lengths into this thread's ``lengths`` buffer.

        The uniforms, their buckets and the lengths are per-thread chunk
        buffers (:func:`chunk_buffer`), so the returned array lives until
        the next decode on the same thread.
        """
        uniforms = generator.random(out=chunk_buffer("uniforms", n_trials, np.float64))
        # intp buckets: a gather re-casts narrower index arrays to intp,
        # which costs more than the wider cast saves.
        buckets = chunk_buffer("buckets", n_trials, np.intp)
        np.multiply(uniforms, self._scale, out=buckets, casting="unsafe")
        # Every bucket lies in [0, scale), so "wrap" never wraps; unlike the
        # default mode it writes straight into the buffer.
        lengths = self._table.take(
            buckets,
            out=chunk_buffer("lengths", n_trials, self._table.dtype),
            mode="wrap",
        )
        unresolved = np.flatnonzero(lengths == self._sentinel)
        if unresolved.size:
            indices = np.searchsorted(
                self._cum, uniforms[unresolved], side="left"
            )
            np.minimum(indices, len(self._lengths) - 1, out=indices)
            lengths[unresolved] = self._lengths[indices]
        return lengths


def decode_slots(raw_columns: Sequence[np.ndarray], n_trials: int) -> np.ndarray:
    """Decode raw slot columns to each trial's sorted slots, as ``(C, n)`` int32.

    The slots and the decode's temporaries are this thread's chunk buffers
    (:func:`chunk_buffer`), so the returned array lives until the next
    decode on the same thread.

    ``raw_columns[j]`` holds uniform draws over the ``N - 1 - j`` slots still
    untaken; each is shifted past the already-taken slots in ascending order
    (the insertion walk of the module docstring) and then inserted into the
    row-wise sorted slots taken so far, so row ``j`` of the result holds
    every trial's ``j``-th smallest slot.  A compromised node on slot
    ``s < length`` sits on 1-based hop position ``s + 1``, and because the
    rows are sorted, a trial's on-path slots are its first ones.

    Row 0 is the smallest raw draw, ``np.minimum.reduce(raw_columns)``: by
    induction over the columns, a draw below every taken slot stays in place
    and becomes the new row 0, and any other draw is lifted above the
    current row 0, which stays.  So whether a trial has any compromised node
    on its path needs no decode.
    """
    # Slots lie below N - 1, so int32 holds them at half the memory traffic.
    n_columns = len(raw_columns)
    slots = chunk_buffer("slots", n_columns * n_trials, np.int32).reshape(
        n_columns, n_trials
    )
    above = chunk_buffer("slot_above", n_trials, bool)
    lower = chunk_buffer("slot_lower", n_trials, np.int32)
    for j, raw in enumerate(raw_columns):
        carry = slots[j]
        carry[...] = raw
        # One pass over the taken rows both shifts the new draw past every
        # taken slot at or below it and carries the larger value upwards,
        # which inserts the draw into the sorted rows.
        for taken in slots[:j]:
            carry += np.greater_equal(carry, taken, out=above)
            np.minimum(taken, carry, out=lower)
            np.maximum(taken, carry, out=carry)
            taken[...] = lower
    return slots
