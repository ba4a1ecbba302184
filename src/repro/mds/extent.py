"""Extent, layout and chunk value types.

The paper (§V.A): "The mapping of file logical address to the physical
address is represented in the form of <file offset, length, device id,
volume offset, state>, which is called an extent.  A file may have one or
more extents ...  The collection of extents in a certain range of a file
is called a layout."
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Extent allocated but whose metadata is not yet durable at the MDS.
EXTENT_NEW = "new"
#: Extent whose metadata commit has been applied at the MDS.
EXTENT_COMMITTED = "committed"


@dataclass(frozen=True)
class Extent:
    """One contiguous mapping of file bytes to volume bytes."""

    file_offset: int
    length: int
    device_id: int
    volume_offset: int
    state: str = EXTENT_NEW

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"extent length must be positive: {self}")
        if self.file_offset < 0 or self.volume_offset < 0:
            raise ValueError(f"negative offsets: {self}")
        if self.state not in (EXTENT_NEW, EXTENT_COMMITTED):
            raise ValueError(f"bad state {self.state!r}")

    @property
    def file_end(self) -> int:
        return self.file_offset + self.length

    @property
    def volume_end(self) -> int:
        return self.volume_offset + self.length

    def committed(self) -> "Extent":
        """A copy of this extent in the committed state."""
        return replace(self, state=EXTENT_COMMITTED)


@dataclass(frozen=True)
class Chunk:
    """A contiguous span of volume space delegated to one client."""

    volume_offset: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0 or self.volume_offset < 0:
            raise ValueError(f"bad chunk {self}")

    @property
    def volume_end(self) -> int:
        return self.volume_offset + self.length


