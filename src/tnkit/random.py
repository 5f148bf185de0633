"""In-place randomization of tensors, dense or block-sparse.

Works on :class:`~tnkit.storage.DenseTensor` and
:class:`~tnkit.unitensor.UniTensor` alike; for symmetric tensors every
stored block is filled, in block order.  The values come from
:func:`tnkit.storage.sample_into`, which checks the parameters (finite,
``low < high``, ``std >= 0``; else ``ValueError``), refuses integer and
bool tensors (``TypeError``), gives complex dtypes
independent real and imaginary parts and reproduces a seeded fill exactly
within this library.
"""

from .storage import DenseTensor, sample_into
from .unitensor import UniTensor


def _views(t):
    if isinstance(t, UniTensor):
        return [blk.view() for blk in t.get_blocks_()]
    if isinstance(t, DenseTensor):
        return [t.view()]
    raise TypeError(f"cannot randomize a {type(t).__name__}")


def uniform_(t, low=0.0, high=1.0, seed=None):
    """Overwrite elements with uniform samples in [low, high); returns t."""
    sample_into(_views(t), "uniform", low, high, seed)
    return t


def normal_(t, mean=0.0, std=1.0, seed=None):
    """Overwrite elements with gaussian samples; returns t."""
    sample_into(_views(t), "normal", mean, std, seed)
    return t
