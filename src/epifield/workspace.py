"""Reusable scratch memory for the per-cell stages of a sweep.

A sweep evaluates hundreds of cells of one grid shape, and every cell
needs a handful of grid-sized temporaries: the intersection terms, the
radiance accumulator, the transform and its magnitude. Allocated afresh,
these buffers go back to the kernel when a cell ends and are faulted in
again by the next one. A Workspace keeps one buffer per name and hands
out views of it, so a worker that reuses its workspace touches the same
pages cell after cell.

The stages take an optional `workspace` keyword. Without one they return
arrays the caller owns. With one, a result is a view of the buffer named
after it, and it stays valid until a later call produces a result of the
same name:

    x, hit      intersect_rays (render_epi leaves its intersection there)
    radiance    TextureSpec.albedo and .radiance, so render_epi's data
    mag         dft2_magnitude (sparsity_rmse then partitions it in place)
    rebuilt     reconstruct_epi

Intermediates live in scratch buffers (t1 .. t4, m1, m2) that never carry
a result out of a call. So the stages of one cell pass results straight
on (render -> spectrum -> sparsity, render -> subsample -> reconstruct ->
psnr) without copies. Keep a copy of anything needed past the next call.
A workspace is not thread safe: give each worker thread its own.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "scratch"]


class Workspace:
    """Named byte buffers that grow to the largest request and never shrink."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape, dtype=float) -> np.ndarray:
        """A C-contiguous view of buffer `name` with this shape and dtype.

        The contents are whatever the buffer held last.
        """
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def holds(self, name: str, arr: np.ndarray) -> bool:
        """Whether arr is a C-contiguous view starting at buffer `name`."""
        buf = self._buffers.get(name)
        return (
            buf is not None
            and arr.base is buf
            and arr.flags.c_contiguous
            and arr.ctypes.data == buf.ctypes.data
        )


def scratch(workspace: Workspace | None, name: str, shape, dtype=float) -> np.ndarray:
    """Buffer `name` of the workspace, or a fresh array without one."""
    if workspace is None:
        return np.empty(shape, dtype)
    return workspace.array(name, shape, dtype)
