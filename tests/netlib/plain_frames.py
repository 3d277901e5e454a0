"""Plain-bytes frames: every FastFrame producer returns its input bytes.

:func:`apply` patches the four producers — ``fastframe.intern``,
``fastframe.share_key``, ``fastframe.derive_frame`` and
``FrameTemplate.emit`` — so no FastFrame is ever made and every hop
extracts flow keys from plain bytes on demand.  That is the packet path
without interning or key memoization, the reference the memoized path
must match byte for byte.
"""

from typing import Any, Optional, Tuple

from repro.netlib import fastframe
from repro.workloads.frames import FrameTemplate


def _intern(data: bytes, pool: dict) -> Tuple[bytes, bool]:
    return data, False


def _share_key(data: bytes, memo: Optional[bytes]) -> bytes:
    return data


def _derive_frame(new_data: bytes, parent: bytes, field: str, value: Any) -> bytes:
    return new_data


def _emit(self) -> bytes:
    return bytes(self.buf)


def apply(monkeypatch) -> None:
    """Patch every FastFrame producer through ``monkeypatch``."""
    monkeypatch.setattr(fastframe, "intern", _intern)
    monkeypatch.setattr(fastframe, "share_key", _share_key)
    monkeypatch.setattr(fastframe, "derive_frame", _derive_frame)
    monkeypatch.setattr(FrameTemplate, "emit", _emit)
