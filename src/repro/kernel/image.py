"""Kernel image loading and the §2.3 compression trade-off.

Historically, flash I/O was the boot bottleneck, so kernel and rootfs
images were compressed.  The paper observes this no longer pays: the
Galaxy S6's flash reads 300 MiB/s sequentially while all eight cores
decompress at only 35 MiB/s.  The model here is a pipelined loader —
reading compressed blocks overlaps decompression — so the load time is
``max(read_time(compressed), decompress_time(uncompressed))``; compression
only wins when storage is slower than the decompressor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.hw.storage import StorageDevice
from repro.quantities import transfer_time_ns


@dataclass(frozen=True, slots=True)
class KernelImage:
    """A bootable kernel image.

    Attributes:
        size_bytes: Uncompressed image size (a 2015 TV kernel is ~10 MiB).
        compressed: Whether the image is stored compressed.
        compression_ratio: Stored size = ``size_bytes / compression_ratio``
            (e.g. 2.0 halves the stored bytes).
    """

    size_bytes: int
    compressed: bool = False
    compression_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise KernelError(f"kernel image size must be positive: {self.size_bytes}")
        if self.compression_ratio <= 1.0:
            raise KernelError(
                f"compression ratio must exceed 1.0: {self.compression_ratio}")

    @property
    def stored_bytes(self) -> int:
        """Bytes occupied on storage."""
        if not self.compressed:
            return self.size_bytes
        return round(self.size_bytes / self.compression_ratio)

    def load_time_ns(self, storage: StorageDevice, decompress_bps: int) -> int:
        """Time for the bootloader to place the image in RAM.

        Uncompressed images are bounded by sequential read throughput.
        Compressed images are read and decompressed in a pipeline, so the
        slower of the two stages dominates.

        Raises:
            KernelError: If ``decompress_bps`` is not positive for a
                compressed image.
        """
        read_ns = storage.request_latency_ns + transfer_time_ns(
            self.stored_bytes, storage.seq_read_bps)
        if not self.compressed:
            return read_ns
        if decompress_bps <= 0:
            raise KernelError(f"decompression throughput must be positive: {decompress_bps}")
        decompress_ns = transfer_time_ns(self.size_bytes, decompress_bps)
        return max(read_ns, decompress_ns)


def compression_crossover_bps(compression_ratio: float, decompress_bps: int) -> int:
    """Storage sequential throughput below which compression starts to pay.

    Compression helps iff the uncompressed read is slower than both
    pipeline stages::

        size/bps > max(size/(ratio*bps), size/decompress_bps)

    The compressed read stage (``size/(ratio*bps)``) is always faster than
    the uncompressed read, so the comparison reduces to the decompressor:
    compression pays exactly when ``seq_read_bps < decompress_bps``.  This
    is the paper's observation inverted: the Galaxy S6's 300 MiB/s flash is
    far past the 35 MiB/s crossover, so compression is "of little help".

    Returns:
        The sequential-read throughput (bytes/s) at which compressed and
        uncompressed loads take equal time.
    """
    if compression_ratio <= 1.0:
        raise KernelError(f"compression ratio must exceed 1.0: {compression_ratio}")
    if decompress_bps <= 0:
        raise KernelError(f"decompression throughput must be positive: {decompress_bps}")
    return decompress_bps
