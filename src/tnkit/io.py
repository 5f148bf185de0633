"""Tensor container file format.

Layout of a ``.utn`` file (all integers little-endian):

====================  =======================================================
bytes 0-4             magic ``b"TNXU\\x00"``
uint32                format version (currently 1)
uint32                length of the JSON header in bytes
header                UTF-8 JSON with keys ``name``, ``labels``, ``rowrank``,
                      ``dtype``, ``bonds`` and ``blocks``
payload               raw C-order little-endian element bytes of every block,
                      concatenated in block-enumeration order
====================  =======================================================

A block-sparse payload is a contiguous tensor's buffer, read in one piece.

Each bond entry stores ``btype`` ("REGULAR"/"IN"/"OUT"), ``dim``, the
symmetry tags (``"U1"``, ``"Z2"``, ...) and the sector list
``[[charges, degeneracy], ...]``; each block entry stores its Qn-index
tuple (``null`` for dense tensors) and shape.
"""

import json
import math
import os
import struct

import numpy as np

from .bond import Bond, BondType
from .storage import SUPPORTED_DTYPES, dtype_name
from .symmetry import symmetry_from_str
from .unitensor import UniTensor, structure_of

MAGIC = b"TNXU\x00"
VERSION = 1

_HEADER_KEYS = ("name", "labels", "rowrank", "dtype", "bonds", "blocks")
# what a malformed header entry raises while the tensor is built from it
_HEADER_ERRORS = (KeyError, TypeError, ValueError, OverflowError)

_DTYPES = {dtype_name(dt): dt for dt in SUPPORTED_DTYPES}


def _bond_to_json(b):
    return {
        "btype": b.btype.name,
        "dim": b.dim,
        "syms": [str(s) for s in b.syms],
        "sectors": [[list(q), d] for q, d in b.sectors],
    }


def _bond_from_json(d):
    btype = BondType[d["btype"]]
    if d["sectors"]:
        return Bond(btype=btype,
                    sectors=[(tuple(q), deg) for q, deg in d["sectors"]],
                    syms=[symmetry_from_str(t) for t in d["syms"]])
    return Bond(d["dim"], btype)


def save_unitensor(ut, path):
    """Write ``ut`` to ``path``; a block-sparse tensor's blocks go in the
    order of the structure of its bonds, which a lazily permuted tensor's
    own block order need not be."""
    layout = structure_of(ut.bonds)
    header = {
        "name": ut.name,
        "labels": ut.labels,
        "rowrank": ut.rowrank,
        "dtype": dtype_name(ut.dtype),
        "bonds": [_bond_to_json(b) for b in ut.bonds],
        "blocks": ([{"qn": list(qn), "shape": list(shape)}
                    for qn, shape in zip(layout.qns, layout.shapes)]
                   if layout else [{"qn": None, "shape": list(ut.shape)}]),
    }
    raw = json.dumps(header).encode()
    payload = ut._flat(layout)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(raw)))
        f.write(raw)
        f.write(payload.astype(payload.dtype.newbyteorder("<"),
                               copy=False).tobytes())


def load_unitensor(path):
    """Read a tensor written by :func:`save_unitensor`.

    A file that is not a well-formed container (bad magic or version,
    cut short, a header that is not JSON or lacks keys, an unknown dtype,
    blocks that do not match the bonds) raises ``ValueError`` naming the
    file.
    """
    with open(path, "rb") as f:
        magic = f.read(5)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a tensor container (bad magic {magic!r})")
        version = _read_uint32(f, path, "format version")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        hlen = _read_uint32(f, path, "header length")
        raw = f.read(hlen)
        if len(raw) != hlen:
            raise ValueError(f"{path}: file ends inside the header "
                             f"({len(raw)} of {hlen} bytes)")
        try:
            header = json.loads(raw.decode())
        except ValueError as e:  # bad UTF-8 or bad JSON
            raise ValueError(f"{path}: header is not valid JSON ({e})") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise ValueError(f"{path}: header lacks keys {missing}")
        dtype = header["dtype"]
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise ValueError(f"{path}: unsupported dtype {dtype!r} (expected "
                             f"one of {', '.join(_DTYPES)})")
        dtype = _DTYPES[dtype]
        try:
            bonds = [_bond_from_json(d) for d in header["bonds"]]
            struct = structure_of(bonds)
            offsets = (struct.offsets if struct
                       else (0, math.prod(b.dim for b in bonds)))
        except _HEADER_ERRORS as e:
            raise ValueError(f"{path}: bad header ({e!r})") from None
        _check_payload_size(f, path, offsets, dtype.itemsize)
        try:
            ut = UniTensor(bonds, labels=header["labels"], name=header["name"],
                           dtype=dtype, rowrank=header["rowrank"])
            entries = [(tuple(b["shape"]),
                        None if b["qn"] is None else tuple(b["qn"]))
                       for b in header["blocks"]]
        except _HEADER_ERRORS as e:
            raise ValueError(f"{path}: bad header ({e!r})") from None
        if len(entries) != ut.nblocks:
            raise ValueError(f"{path}: header lists {len(entries)} blocks, "
                             f"its bonds give {ut.nblocks}")
        shapes = ut._struct.shapes if ut.is_sym else [ut.shape]
        for i, ((shape, qn), expected) in enumerate(zip(entries, shapes)):
            if shape != expected or not all(type(d) is int for d in shape):
                raise ValueError(f"{path}: block {i} has shape {shape}, "
                                 f"expected {expected}")
            if ut.is_sym and qn != ut.block_qn_indices(i):
                raise ValueError(f"{path}: block {i} has Qn indices {qn}, "
                                 f"expected {ut.block_qn_indices(i)}")
        flat = ut._flat()           # the fresh tensor's own storage
        buf = f.read(flat.nbytes)
        if len(buf) != flat.nbytes:
            raise ValueError(f"{path}: payload ends early ({len(buf)} of "
                             f"{flat.nbytes} bytes)")
        flat[...] = np.frombuffer(buf, dtype=dtype.newbyteorder("<"))
        return ut


def _check_payload_size(f, path, offsets, itemsize):
    """Raise, before anything is allocated, if the rest of the file is
    shorter than the payload of the blocks at ``offsets``."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        if hi * itemsize > left:
            raise ValueError(f"{path}: payload ends inside block {i} "
                             f"({left - lo * itemsize} of "
                             f"{(hi - lo) * itemsize} bytes)")


def _read_uint32(f, path, what):
    raw = f.read(4)
    if len(raw) != 4:
        raise ValueError(f"{path}: file ends inside the fixed header "
                         f"(reading the {what})")
    return struct.unpack("<I", raw)[0]
