"""Kernel substrate: frames, processes, traps and shared memory."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.kernel.frames import FrameAllocator, OutOfMemoryError
    from repro.kernel.kernel import Kernel, KernelConfig, KernelStats
    from repro.kernel.process import CODE_BASE, DATA_BASE, Process, ProcessError, VMA
    from repro.kernel.shm import (
        CTRL_WORD,
        DATA_WORD,
        MONITOR_QUIT,
        MONITOR_START,
        MONITOR_STOP,
        STATUS_WORD,
        SharedChannel,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernel.frames": ("FrameAllocator", "OutOfMemoryError"),
    "repro.kernel.kernel": ("Kernel", "KernelConfig", "KernelStats"),
    "repro.kernel.process": (
        "CODE_BASE", "DATA_BASE", "Process", "ProcessError", "VMA"),
    "repro.kernel.shm": (
        "CTRL_WORD", "DATA_WORD", "MONITOR_QUIT", "MONITOR_START",
        "MONITOR_STOP", "STATUS_WORD", "SharedChannel"),
})

__all__ = [
    "FrameAllocator",
    "OutOfMemoryError",
    "Kernel",
    "KernelConfig",
    "KernelStats",
    "CODE_BASE",
    "DATA_BASE",
    "Process",
    "ProcessError",
    "VMA",
    "CTRL_WORD",
    "DATA_WORD",
    "MONITOR_QUIT",
    "MONITOR_START",
    "MONITOR_STOP",
    "STATUS_WORD",
    "SharedChannel",
]
