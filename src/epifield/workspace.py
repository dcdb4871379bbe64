"""Reusable scratch memory for the per-cell stages of a sweep.

A sweep evaluates hundreds of cells of one grid shape, and every cell
needs a handful of grid-sized temporaries: the intersection terms, the
radiance accumulator, the transform and its magnitude. Allocated afresh,
these buffers go back to the kernel when a cell ends and are faulted in
again by the next one. A Workspace keeps its buffers and hands out views
of them, so a worker that reuses its workspace touches the same pages
cell after cell.

The stages take an optional `workspace` keyword. Without one they return
arrays the caller owns. With one, a result is a view of the role named
after it:

    x, hit      intersect_rays (render_epi leaves its intersection there)
    radiance    TextureSpec.albedo and .radiance, so render_epi's data
    mag         dft2_magnitude
    rebuilt     reconstruct_epi

Intermediates live in scratch roles (t1, spectrum, taper, block, m1,
m2) that never carry a result out of a call. So the stages of one cell
pass results straight on (render -> spectrum -> sparsity, render ->
subsample -> reconstruct -> psnr) without copies.

Roles whose lifetimes within a cell never overlap share bytes, so a cell
holds 2 float grids, one block and 3 bool grids (a grid is one element
per pixel), and a Hann-windowed transform one float grid more. A float
grid counts one float64:

    buffer    grids  roles
    x         2      grid 0: x, then rebuilt or mag; grid 1: the planar
                     intersection's b or the curved one's temporaries,
                     then radiance, then t1 (each is spent once the next
                     is computed); dft2_magnitude's complex spectrum is
                     the whole buffer, widened from an EPI in grid 1
    block     -      one block of rows (scratch_blocks)
    taper     1      the Hann window, in Hann cells only

Every other role (hit, m1, m2) has a buffer of its own. A role's offset
counts grids of the request's own size, and a shared buffer is allocated
at its full size on first use, so growing it for one role never drops
another role's live grid of the same shape. The curved intersection asks
for its four temporaries as one radiance request of four stacked row
blocks (see intersect_rays). Blocks that cover more than the grid's rows
grow the buffer, which drops its contents, so it asks for them before x.

A temporary needed one block of rows at a time comes from scratch_blocks:
the block buffer of _BLOCK_ITEMS elements (128 KiB of float64), reused
block after block. The albedo's per-frequency term, a reconstruction's
far rows, and the rows of dft2_magnitude's two in-place steps (EPI to
spectrum, spectrum to mag) whose output covers their own input take it
that way. A reconstruction cell writes grids 0
and 1 of x and the block, and no float byte besides.

A result stays valid until the next call that writes any role sharing
its bytes: rebuilt overwrites x, mag overwrites x and radiance, t1
overwrites radiance, psnr overwrites rebuilt, and the next intersect_rays
overwrites x and radiance. Keep a copy of anything needed past that. A
workspace is not thread safe: give each worker thread its own.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "scratch", "scratch_blocks"]

# elements of a scratch_blocks block (128 KiB of float64), a quarter of a
# 256^2 float grid: a larger block leaves fewer pages untouched, a smaller
# one costs more numpy calls per grid
_BLOCK_ITEMS = 1 << 14

# role -> (buffer, offset in float grids), for the roles that share bytes
_SHARED = {
    "rebuilt": ("x", 0),
    "mag": ("x", 0),
    "spectrum": ("x", 0),
    "radiance": ("x", 1),
    "t1": ("x", 1),
}
_GRIDS = {"x": 2}  # float grids a shared buffer is allocated with
_GRID_ITEMSIZE = np.dtype(float).itemsize


def _place(name: str, count: int) -> tuple[str, int, int]:
    """(buffer, first byte, allocation bytes) of role `name` on count pixels."""
    buffer, offset = _SHARED.get(name, (name, 0))
    grid = count * _GRID_ITEMSIZE
    return buffer, offset * grid, _GRIDS.get(buffer, 0) * grid


class Workspace:
    """Byte buffers behind named roles; they grow to the largest request and never shrink."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape, dtype=float) -> np.ndarray:
        """A C-contiguous view of role `name` with this shape and dtype.

        The contents are whatever the role's bytes held last.
        """
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        buffer, start, size = _place(name, count)
        end = start + count * dtype.itemsize
        buf = self._buffers.get(buffer)
        if buf is None or buf.size < max(size, end):
            buf = self._buffers[buffer] = np.empty(max(size, end), np.uint8)
        return buf[start:end].view(dtype).reshape(shape)


def scratch(workspace: Workspace | None, name: str, shape, dtype=float) -> np.ndarray:
    """Role `name` of the workspace, or a fresh array without one."""
    if workspace is None:
        return np.empty(shape, dtype)
    return workspace.array(name, shape, dtype)


def scratch_blocks(workspace: Workspace | None, shape):
    """Yield (rows, block) pairs that cover the rows of `shape` in order.

    block is a float view of shape (len(rows),) + shape[1:] on the same
    bytes every time: the workspace's "block" role, or one fresh array
    without a workspace. It holds as many whole rows as fit in
    _BLOCK_ITEMS elements, at least one.
    """
    n, row = shape[0], math.prod(shape[1:])
    step = max(1, min(n, _BLOCK_ITEMS // max(row, 1)))
    block = scratch(workspace, "block", (step,) + tuple(shape[1:]))
    for start in range(0, n, step):
        stop = min(start + step, n)
        yield slice(start, stop), block[: stop - start]
