"""Core packet model.

A :class:`Packet` is an immutable snapshot of one frame on the wire: the raw
bytes, a capture timestamp, an optional ground-truth label (benign / attack
family), and parse metadata filled in by the protocol stacks.  The learning
pipeline (:mod:`repro.core`) consumes *only* ``packet.data`` — the raw bytes —
which is the central premise of the paper: the data plane can match arbitrary
byte offsets without understanding the protocol.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["Packet", "Label", "BENIGN"]

#: Canonical label for non-attack traffic.
BENIGN = "benign"


@dataclasses.dataclass(frozen=True)
class Label:
    """Ground-truth annotation for a generated packet.

    Attributes:
        category: ``"benign"`` or an attack family name such as
            ``"syn_flood"``.
        device: identifier of the emitting device model (for per-device
            analysis), e.g. ``"sensor-3"``.
    """

    category: str = BENIGN
    device: str = ""

    @property
    def is_attack(self) -> bool:
        return self.category != BENIGN


@dataclasses.dataclass(frozen=True)
class Packet:
    """One captured frame.

    Attributes:
        data: raw wire bytes, starting at the link layer.
        timestamp: capture time in seconds (float, epoch-relative or
            trace-relative — generators use trace-relative).
        label: optional ground truth (present for generated traces).
        meta: parse metadata (header names → decoded field dicts); filled
            lazily by :func:`repro.net.protocols.inet.parse_ethernet` and
            friends, never required by the learning pipeline.
    """

    data: bytes
    timestamp: float = 0.0
    label: Label = dataclasses.field(default_factory=Label)
    meta: Dict[str, Dict[str, int]] = dataclasses.field(
        default_factory=dict, compare=False, hash=False
    )

    def __len__(self) -> int:
        return len(self.data)

    def byte_at(self, offset: int) -> int:
        """Byte value at ``offset``; 0 if the packet is shorter.

        Mirrors P4 parser semantics where a header beyond the end of a short
        packet reads as zero after padding — the feature extractor
        (:mod:`repro.datasets.features`) relies on the same convention so the
        model and the data plane see identical values.
        """
        if offset < 0:
            raise IndexError(f"negative offset {offset}")
        if offset >= len(self.data):
            return 0
        return self.data[offset]

    def bytes_at(self, offsets: Tuple[int, ...]) -> Tuple[int, ...]:
        """Values at several offsets (see :meth:`byte_at`)."""
        return tuple(self.byte_at(o) for o in offsets)

    @staticmethod
    def batch_keys(
        packets: "Sequence[Packet]", offsets: Sequence[int]
    ):
        """Match keys for a whole trace as one ``(n, k)`` uint8 matrix.

        Row ``i`` equals ``packets[i].bytes_at(offsets)`` — including the
        zero-fill past the end of short packets — read through
        :meth:`repro.net.frames.FrameBlock.bytes_at`, the batch data
        path's key extractor.

        Raises:
            ValueError: if ``offsets`` is empty.
            IndexError: if any offset is negative.
        """
        from repro.net.frames import FrameRows

        return FrameRows.of(packets).keys(offsets)

    def with_label(self, category: str, device: str = "") -> "Packet":
        """Copy of this packet with a new ground-truth label."""
        return dataclasses.replace(self, label=Label(category, device))

    def summary(self) -> str:
        """One-line human-readable description."""
        kind = self.label.category
        return f"<Packet {len(self.data)}B t={self.timestamp:.4f} label={kind}>"


def truncate(packet: Packet, snap_length: int) -> Packet:
    """Return ``packet`` truncated to at most ``snap_length`` bytes."""
    if snap_length < 0:
        raise ValueError(f"snap_length must be >= 0, got {snap_length}")
    if len(packet.data) <= snap_length:
        return packet
    return dataclasses.replace(packet, data=packet.data[:snap_length])
