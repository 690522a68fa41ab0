"""Stochastic number generators (SNGs).

An SNG converts a real value into a stochastic bit-stream by comparing a
(pseudo-)random sequence against the value's ones-probability each clock
cycle.  Two generators are provided:

:class:`IdealSNG`
    Uses numpy's PCG64 — the "sufficiently random" assumption the paper's
    accuracy analysis relies on.  This is the default everywhere.

:class:`LfsrSNG`
    Uses maximal-length LFSRs like the actual peripheral circuitry (ref
    (22)).  Streams produced from the *same* LFSR are strongly correlated
    (a known SC hazard); the generator therefore rotates over a pool of
    differently-seeded LFSRs, mirroring the paper's RNG-sharing design.
    The pool's state sequences are slices of the cached full-period orbit
    table of :mod:`repro.sc.lfsr`, so generation is array indexing rather
    than per-cycle register stepping.

Both draw, compare and pack in row chunks of at most :data:`CHUNK_BYTES`
of comparator values, so a bank's transient memory is bounded whatever
its size.  With the native tier enabled, :class:`IdealSNG` instead steps
PCG64, compares and packs in one C pass that holds no comparator values
at all (:func:`repro.native.sng_pcg64_pack`); the chunked path stays the
oracle.

:class:`StreamFactory` bundles an SNG with seed management and exposes the
high-level ``streams(values, length)`` API used by all function blocks.
"""

from __future__ import annotations

import numpy as np

import repro.native as native
from repro.sc import ops
from repro.sc.bitstream import Bitstream
from repro.sc.encoding import Encoding, to_probability
from repro.sc.lfsr import LFSR
from repro.utils.seeding import derive_seed, spawn_rng
from repro.utils.validation import check_positive_int, check_stream_length

__all__ = ["IdealSNG", "LfsrSNG", "StreamFactory"]


#: Upper bound (bytes) on the comparator values one generation chunk
#: holds.  Streams are drawn, compared and packed this many values at a
#: time, so no bank of any size materializes its whole ``(rows, length)``
#: block of uniforms or LFSR states.
CHUNK_BYTES = 4 << 20


def _row_chunks(rows: int, length: int) -> list:
    """Row slices covering ``rows`` streams, each within CHUNK_BYTES of
    8-byte comparator values."""
    step = max(1, CHUNK_BYTES // (8 * length))
    return [slice(start, min(start + step, rows))
            for start in range(0, rows, step)]


class _ComparatorSNG:
    """The comparator datapath every SNG shares.

    A subclass supplies two steps: ``draw(rows, length)``, the comparator
    values of one generation call as ``(row slice, block)`` chunks, and
    ``compare(block, probs)``, the stream bits of those values against
    ones-probabilities (broadcasting a leading batch axis of ``probs``).
    :meth:`generate` and the exact backend's cached input encode run
    through the same two steps.
    """

    def generate(self, probs: np.ndarray, length: int) -> np.ndarray:
        """Generate packed streams with ones-probability ``probs``.

        Parameters
        ----------
        probs:
            Array of probabilities in [0, 1]; output batch shape matches.
        length:
            Stream length in bits.

        Returns
        -------
        Packed uint8 array of shape ``probs.shape + (ceil(length/8),)``.
        """
        length = check_stream_length(length)
        probs = np.asarray(probs, dtype=np.float64)
        flat = probs.reshape(-1)
        out = np.empty((flat.size, ops.packed_nbytes(length)),
                       dtype=np.uint8)
        for rows, block in self.draw(flat.size, length):
            out[rows] = ops.pack_bits(self.compare(block, flat[rows]))
        return out.reshape(probs.shape + out.shape[-1:])

    def draw_block(self, rows: int, length: int) -> np.ndarray:
        """The whole ``(rows, length)`` comparator block of one call.

        Advances the generator exactly as :meth:`generate` over ``rows``
        streams would; for blocks small enough to keep (one image).
        """
        length = check_stream_length(length)
        return np.concatenate([block for _, block in self.draw(rows, length)])


class IdealSNG(_ComparatorSNG):
    """Comparator SNG driven by an ideal PRNG (numpy PCG64).

    Each call to :meth:`generate` draws fresh, independent uniforms, so any
    two generated streams are statistically independent — the ideal case
    for AND/XNOR multipliers.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = spawn_rng(seed, "ideal-sng")

    def clone(self) -> "IdealSNG":
        """A new generator frozen at this one's current PRNG state.

        Draws from the clone replay exactly what this generator would
        produce next, without advancing it (see
        :meth:`StreamFactory.fork`).
        """
        twin = IdealSNG(seed=self._seed)
        twin._rng.bit_generator.state = self._rng.bit_generator.state
        return twin

    def generate(self, probs: np.ndarray, length: int) -> np.ndarray:
        """Generate packed streams with ones-probability ``probs``.

        On the native tier a PCG64 generator runs as one
        :func:`repro.native.sng_pcg64_pack` pass, bit-identical to the
        chunked NumPy path and leaving the same generator state; any
        other bit generator takes the chunked path.
        """
        bit_generator = self._rng.bit_generator
        if not (native.enabled()
                and type(bit_generator) is np.random.PCG64):
            return super().generate(probs, length)
        length = check_stream_length(length)
        probs = np.asarray(probs, dtype=np.float64)
        out = native.sng_pcg64_pack(bit_generator, probs.reshape(-1), length)
        return out.reshape(probs.shape + out.shape[-1:])

    def draw(self, rows: int, length: int):
        """PCG64 uniforms for ``rows`` streams, in row chunks.

        ``random()`` fills in C order, so the chunks replay one
        ``(rows, length)`` draw value for value and leave the generator
        in the same state.
        """
        return ((chunk, self._rng.random((chunk.stop - chunk.start, length)))
                for chunk in _row_chunks(rows, length))

    @staticmethod
    def compare(block: np.ndarray, probs: np.ndarray) -> np.ndarray:
        return block < probs[..., None]

    def reseed(self, seed: int) -> None:
        """Reset the generator to a deterministic state."""
        self._seed = seed
        self._rng = spawn_rng(seed, "ideal-sng")


class LfsrSNG(_ComparatorSNG):
    """Comparator SNG driven by a pool of maximal-length LFSRs.

    Parameters
    ----------
    width:
        LFSR width; the comparison threshold is ``round(p * (2**width - 1))``.
    seed:
        Root seed; per-stream LFSR initial states are derived from it.
    pool:
        Number of distinct LFSRs rotated across streams.  Streams assigned
        the same pool entry share a random sequence and are *correlated*,
        reproducing the hardware's RNG-sharing trade-off.
    """

    def __init__(self, width: int = 16, seed: int = 0, pool: int = 64):
        self.width = check_positive_int(width, "width")
        self.pool = check_positive_int(pool, "pool")
        self._seed = seed
        self._counter = 0

    def clone(self) -> "LfsrSNG":
        """A new generator frozen at this one's current call counter."""
        twin = LfsrSNG(width=self.width, seed=self._seed, pool=self.pool)
        twin._counter = self._counter
        return twin

    def draw(self, rows: int, length: int):
        """LFSR states for ``rows`` streams, in row chunks.

        One LFSR sequence per pool slot, offset by the call counter
        (advanced once per call) so repeated calls do not replay the
        identical window; stream ``r`` reads slot ``r mod n_slots``.
        """
        max_val = (1 << self.width) - 1
        n_slots = min(self.pool, max(rows, 1))
        sequences = np.empty((n_slots, length), dtype=np.int64)
        for slot in range(n_slots):
            lfsr = LFSR(
                self.width,
                seed=derive_seed(self._seed, "lfsr-sng", slot, self._counter)
                % max_val
                + 1,
            )
            sequences[slot] = lfsr.sequence(length)
        self._counter += 1
        return ((chunk,
                 sequences[np.arange(chunk.start, chunk.stop) % n_slots])
                for chunk in _row_chunks(rows, length))

    def compare(self, block: np.ndarray, probs: np.ndarray) -> np.ndarray:
        max_val = (1 << self.width) - 1
        thresholds = np.round(probs * max_val).astype(np.int64)
        return block <= thresholds[..., None]

    def reseed(self, seed: int) -> None:
        """Reset the generator to a deterministic state."""
        self._seed = seed
        self._counter = 0


class StreamFactory:
    """High-level bit-stream factory used by all function blocks.

    Bundles an SNG with an encoding and provides value-level APIs:

    >>> fab = StreamFactory(seed=7)
    >>> s = fab.streams([0.5, -0.25], length=1024)
    >>> abs(s.value()[0] - 0.5) < 0.1
    True

    The ``select_signal`` method produces the uniformly-random MUX select
    sequences needed by MUX-based adders and average pooling.
    """

    def __init__(self, seed: int = 0, encoding: Encoding = Encoding.BIPOLAR,
                 sng: str = "ideal", lfsr_width: int = 16):
        if sng == "ideal":
            self.sng = IdealSNG(seed=seed)
        elif sng == "lfsr":
            self.sng = LfsrSNG(width=lfsr_width, seed=seed)
        else:
            raise ValueError(f"unknown sng kind {sng!r}; use 'ideal' or 'lfsr'")
        self.encoding = encoding
        self._select_rng = spawn_rng(seed, "mux-select")

    def fork(self) -> "StreamFactory":
        """A new factory frozen at this factory's current stream state.

        The fork replays exactly the draws this factory would make next
        (SNG uniforms *and* MUX select integers) without advancing it.
        Forking the same factory twice yields two identical, mutually
        independent replicas — the exact backend draws one from its
        post-construction state to cache the input draws every request
        shares.
        """
        twin = object.__new__(StreamFactory)
        twin.sng = self.sng.clone()
        twin.encoding = self.encoding
        twin._select_rng = np.random.default_rng(0)
        twin._select_rng.bit_generator.state = \
            self._select_rng.bit_generator.state
        return twin

    def streams(self, values, length: int,
                encoding: Encoding = None) -> Bitstream:
        """Encode ``values`` into a batch of bit-streams."""
        enc = encoding or self.encoding
        probs = to_probability(values, enc)
        return Bitstream(self.sng.generate(probs, length), length, enc)

    def packed(self, values, length: int,
               encoding: Encoding = None) -> np.ndarray:
        """Encode values and return the raw packed array (hot paths)."""
        enc = encoding or self.encoding
        probs = to_probability(values, enc)
        return self.sng.generate(probs, length)

    def select_signal(self, n: int, length: int) -> np.ndarray:
        """Uniform random MUX select signal: ``length`` ints in ``[0, n)``."""
        n = check_positive_int(n, "n")
        length = check_stream_length(length)
        return self._select_rng.integers(0, n, size=length)
