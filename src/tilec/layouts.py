"""Layout encodings: how a workgroup-shaped tensor is partitioned over warps.

Three encodings exist.  Blocked is the explicit form: each warp owns a
``size_per_warp`` tile within a ``warps_per_cta`` grid, linearized fastest
along ``order[0]``.  DotOperand and Slice are derived forms whose partition is
defined by reduction to an *equivalent Blocked* for a concrete tensor shape.
When the warp grid overshoots the tensor (size_per_warp[d] * warps_per_cta[d]
> shape[d]) the surplus warps replicate: the warp coordinate along d is taken
modulo shape[d] // size_per_warp[d].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .ir import TilingHint


class LayoutError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class BlockedEncoding:
    size_per_warp: tuple[int, ...]
    warps_per_cta: tuple[int, ...]
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        r = len(self.size_per_warp)
        if len(self.warps_per_cta) != r or len(self.order) != r:
            raise LayoutError("blocked encoding field ranks disagree")
        if r and sorted(self.order) != list(range(r)):
            raise LayoutError(f"order {self.order} is not a permutation")

    @property
    def rank(self) -> int:
        return len(self.size_per_warp)


@dataclass(frozen=True, slots=True)
class DotOperandEncoding:
    op_idx: int  # 0 = left (m x k), 1 = right (k x n)
    parent: "LayoutEncoding"

    def __post_init__(self) -> None:
        if self.op_idx not in (0, 1):
            raise LayoutError(f"op_idx must be 0 or 1, got {self.op_idx}")

    @property
    def rank(self) -> int:
        return 2


@dataclass(frozen=True, slots=True)
class SliceEncoding:
    dim: int
    parent: "LayoutEncoding"

    @property
    def rank(self) -> int:
        return self.parent.rank - 1


LayoutEncoding = Union[BlockedEncoding, DotOperandEncoding, SliceEncoding]


def tile_root(shape: Sequence[int], num_warps: int, hint: TilingHint | str | None = None) -> BlockedEncoding:
    """Pick the root Blocked layout for a workgroup-shaped tensor.

    horizontal splits rows across warps, vertical splits columns, and the
    default (no hint) picks the divisor pair w0*w1 == num_warps minimizing the
    aspect ratio of the per-warp tile (ties broken toward the larger w0).
    Every warp dim must divide the tensor dim.
    """
    shape = tuple(shape)
    if any(d < 1 for d in shape):
        raise LayoutError(f"bad shape {shape}")
    if hint is not None and hint not in tuple(TilingHint):
        raise LayoutError(f"unknown tiling hint {hint!r}")
    if len(shape) == 1:
        if shape[0] % num_warps != 0:
            raise LayoutError(f"shape {shape} not divisible by {num_warps} warps")
        return BlockedEncoding((shape[0] // num_warps,), (num_warps,), (0,))
    if len(shape) != 2:
        raise LayoutError(f"tile_root expects rank 1 or 2, got {len(shape)}")

    if hint == TilingHint.horizontal:
        grids = [(num_warps, 1)]
    elif hint == TilingHint.vertical:
        grids = [(1, num_warps)]
    else:
        grids = [(w0, num_warps // w0) for w0 in range(1, num_warps + 1) if num_warps % w0 == 0]

    best: tuple[int, int] | None = None
    best_key: tuple[float, int] | None = None
    for w0, w1 in grids:
        if shape[0] % w0 != 0 or shape[1] % w1 != 0:
            continue
        s0, s1 = shape[0] // w0, shape[1] // w1
        aspect = max(s0, s1) / min(s0, s1)
        key = (aspect, -w0)  # tie-break toward larger w0
        if best_key is None or key < best_key:
            best, best_key = (w0, w1), key
    if best is None:
        kind = hint.value if isinstance(hint, TilingHint) else hint or "square"
        raise LayoutError(
            f"workgroup shape {shape} not divisible by any {kind} warp grid for {num_warps} warps"
        )
    w0, w1 = best
    return BlockedEncoding((shape[0] // w0, shape[1] // w1), (w0, w1), (1, 0))


_UNKNOWN = -1  # sentinel extent for erased dims while resolving parents


def equivalent_blocked(enc: LayoutEncoding, shape: Sequence[int]) -> BlockedEncoding:
    """Reduce any encoding to its equivalent Blocked for a tensor of ``shape``.

    DotOperand op_idx=0 keeps the parent's row tiling and owns all columns
    (the contraction dim is never split); op_idx=1 owns all rows and keeps the
    parent's column tiling.  Slice erases its dim from the parent.  Parents
    may themselves be DotOperand encodings and are resolved recursively; a
    DotOperand whose parent is a Slice has no defined partition and is
    rejected.
    """
    out = _equiv(enc, tuple(shape))
    if any(d == _UNKNOWN for d in out.size_per_warp):
        raise LayoutError(f"unresolvable partition for {enc} at shape {tuple(shape)}")
    return out


def _equiv(enc: LayoutEncoding, shape: tuple[int, ...]) -> BlockedEncoding:
    if isinstance(enc, BlockedEncoding):
        if enc.rank != len(shape):
            raise LayoutError(f"encoding rank {enc.rank} != shape rank {len(shape)}")
        # broadcast keeps its operand's encoding, so a dim may be narrower
        # than the nominal warp tile; the partition clamps to the tensor
        spw = tuple(
            s if d == _UNKNOWN else min(s, d) for s, d in zip(enc.size_per_warp, shape)
        )
        if spw == enc.size_per_warp:
            return enc
        return BlockedEncoding(spw, enc.warps_per_cta, enc.order)
    if isinstance(enc, DotOperandEncoding):
        if len(shape) != 2:
            raise LayoutError("dot operand encodings are rank 2")
        if isinstance(enc.parent, SliceEncoding):
            raise LayoutError("dot operand with slice parent has no defined partition")
        p = _equiv(enc.parent, shape)
        if enc.op_idx == 0:
            size = (p.size_per_warp[0], shape[1])
        else:
            size = (shape[0], p.size_per_warp[1])
        return BlockedEncoding(size, p.warps_per_cta, p.order)
    if isinstance(enc, SliceEncoding):
        d = enc.dim
        parent_rank = enc.parent.rank
        if not (0 <= d < parent_rank):
            raise LayoutError(f"slice dim {d} out of range for parent rank {parent_rank}")
        if len(shape) != parent_rank - 1:
            raise LayoutError(f"slice of rank-{parent_rank} parent applies to rank-{parent_rank - 1} tensors")
        parent_shape = shape[:d] + (_UNKNOWN,) + shape[d:]
        p = _equiv(enc.parent, parent_shape)
        erase = lambda t: t[:d] + t[d + 1 :]
        new_order = tuple(i if i < d else i - 1 for i in p.order if i != d)
        return BlockedEncoding(erase(p.size_per_warp), erase(p.warps_per_cta), new_order)
    raise LayoutError(f"unknown encoding {enc!r}")
