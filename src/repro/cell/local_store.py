"""SPE local-store accounting.

Each SPE owns 256 KB of software-managed local storage holding the code
image, stack and heap.  The runtime must fit the off-loaded code module
(117 KB for RAxML's three merged functions) and leave room for data; this
module does the bookkeeping and raises :class:`LocalStoreOverflow` when a
code image or allocation cannot fit — mirroring the constraint the paper
discusses in Sections 5.1 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["CodeImage", "LocalStore", "LocalStoreOverflow"]


class LocalStoreOverflow(RuntimeError):
    """Raised when the 256 KB local store cannot hold a request."""


@dataclass(frozen=True)
class CodeImage:
    """An SPE code module.

    ``name`` identifies the off-loaded function group (e.g. ``raxml3``)
    and ``variant`` the parallelization flavour (``serial`` vs ``llp``).
    The paper keeps separate serial and loop-parallel images and swaps
    them, because conditionals are expensive on the SPE.
    """

    name: str
    variant: str
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("code image size must be positive")

    @property
    def key(self) -> tuple:
        return (self.name, self.variant)


class LocalStore:
    """Byte-level accounting of one SPE's local store.

    Layout: a single code image plus named data allocations (stack, heap,
    DMA buffers).  Allocation is first-fit by total size only — the model
    tracks *capacity*, not addresses, which is all scheduling decisions
    need.
    """

    def __init__(self, capacity: int, stack_reserve: int = 4 * 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if stack_reserve < 0 or stack_reserve > capacity:
            raise ValueError("invalid stack reserve")
        self.capacity = capacity
        self.stack_reserve = stack_reserve
        self.code_image: Optional[CodeImage] = None
        self._allocs: Dict[str, int] = {}

    @property
    def code_size(self) -> int:
        return self.code_image.size if self.code_image else 0

    @property
    def data_in_use(self) -> int:
        return sum(self._allocs.values())

    @property
    def free(self) -> int:
        return self.capacity - self.code_size - self.data_in_use - self.stack_reserve

    def fits_code(self, image: CodeImage) -> bool:
        """Would ``image`` fit if it replaced the current code image?"""
        return image.size + self.data_in_use + self.stack_reserve <= self.capacity

    def load_code(self, image: CodeImage) -> int:
        """Install ``image``, replacing any existing one.

        Returns the number of bytes that must be DMA-transferred (the full
        image size; 0 if the identical image is already resident).
        """
        if self.code_image is not None and self.code_image.key == image.key:
            return 0
        if not self.fits_code(image):
            raise LocalStoreOverflow(
                f"code image {image.name}/{image.variant} ({image.size} B) "
                f"does not fit: {self.data_in_use} B data + "
                f"{self.stack_reserve} B stack in {self.capacity} B store"
            )
        self.code_image = image
        return image.size

    def allocate(self, label: str, nbytes: int) -> None:
        """Reserve ``nbytes`` of data space under ``label``."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if label in self._allocs:
            raise ValueError(f"allocation {label!r} already exists")
        if nbytes > self.free:
            raise LocalStoreOverflow(
                f"allocation {label!r} ({nbytes} B) exceeds free space "
                f"({self.free} B)"
            )
        self._allocs[label] = nbytes

    def release(self, label: str) -> int:
        """Free the allocation ``label``; returns its size."""
        try:
            return self._allocs.pop(label)
        except KeyError:
            raise KeyError(f"no allocation named {label!r}") from None
