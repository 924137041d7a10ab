"""Grayscale PGM input/output and the overlapping-patch image pipeline."""

import itertools
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class PgmError(ValueError):
    """Malformed PGM input; ``offset`` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_TOKEN = re.compile(rb"#[^\r\n]*|(\S+)")


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM file with maxval 255.

    Returns a uint8 array of shape (height, width). Any malformed header,
    out-of-range sample or truncated payload raises PgmError with the byte
    offset of the failure; other maxvals are rejected. The header and a P2
    raster are whitespace-separated tokens, and a '#' that starts a token
    starts a comment to the end of its line. No array is sized from the
    header, so time and memory grow with the file, not with its dimensions.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = (m for m in _TOKEN.finditer(data) if m[1])

    def number(m, what):
        if not m[1].isdigit():
            raise PgmError(f"expected {what}, got {m[1][:16]!r}", m.start())
        try:
            return int(m[1])
        except ValueError:  # more digits than int() converts
            raise PgmError(f"{what} of {len(m[1])} digits is too long",
                           m.start()) from None

    def header(what):
        m = next(tokens, None)
        if m is None:
            raise PgmError("unexpected end of header", len(data))
        return m if what == "magic" else (number(m, what), m.end())

    magic = header("magic")
    if magic[1] not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic {magic[1][:16]!r}", magic.start())
    width, _ = header("width")
    height, pos = header("height")
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}", pos)
    maxval, pos = header("maxval")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, only 255 is handled",
                       pos)
    count = width * height
    if magic[1] == b"P5":
        if pos >= len(data) or not data[pos:pos + 1].isspace():
            raise PgmError("expected single whitespace after maxval", pos)
        pos += 1
        if len(data) - pos < count:
            raise PgmError(f"truncated pixel data, expected {count} bytes, "
                           f"found {len(data) - pos}", len(data))
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        values = bytearray()
        for m in itertools.islice(tokens, count):
            v = number(m, "pixel value")
            if v > maxval:
                raise PgmError(f"pixel value {v} exceeds maxval", m.start())
            values.append(v)
        if len(values) < count:
            raise PgmError(f"truncated pixel data, expected {count} values, "
                           f"found {len(values)}", len(data))
        pixels = np.frombuffer(values, dtype=np.uint8)
    return pixels.reshape(height, width).copy()


def write_pgm(path, image) -> None:
    """Write an image as binary PGM (P5) with maxval 255. Values are
    rounded and clipped to [0, 255]. An image with a zero side, or with NaN
    or inf pixels, raises ValueError before the file is opened."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError("a 2-d image is required")
    if not arr.size:
        raise ValueError(f"the image has a zero side, shape {arr.shape}")
    bad = arr.size - np.count_nonzero(np.isfinite(arr))
    if bad:
        raise ValueError(f"the image has {bad} non-finite pixel(s)")
    arr = np.clip(np.rint(arr.astype(float)), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def patch_count(height: int, width: int, patch_side: int, stride: int) -> int:
    """Number of patches: (floor((W-p)/s)+1) * (floor((H-p)/s)+1)."""
    if patch_side < 1 or stride < 1:
        raise ValueError("patch_side and stride must be at least 1")
    if patch_side > height or patch_side > width:
        raise ValueError("patch does not fit inside the image")
    return (((width - patch_side) // stride + 1)
            * ((height - patch_side) // stride + 1))


def extract_patches(image, patch_side: int, stride: int = 1) -> np.ndarray:
    """Collect all patch_side x patch_side windows on the stride grid.

    Returns the ``(patch_side**2, n)`` patch matrix: one column per patch
    (the patch flattened row by row), columns ordered by the patches'
    top-left corners, row-major. It is a new C-contiguous float64 array
    that owns its data, so the caller may overwrite it.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("a 2-d image is required")
    h, w = img.shape
    patch_count(h, w, patch_side, stride)  # validates the geometry
    windows = sliding_window_view(img, (patch_side, patch_side))
    windows = windows[::stride, ::stride]
    nr, nc = windows.shape[:2]
    return windows.reshape(nr * nc, patch_side * patch_side).T.copy()


def assemble_patches(patches, image, patch_side: int,
                     stride: int) -> np.ndarray:
    """Average the overlapping patch columns, placed at their row-major grid
    origins, into a float copy of ``image``, the 2-d image they came from,
    and clip to [0, 255]. A pixel no patch covers (in the last rows or
    columns, or between patches when ``stride`` exceeds ``patch_side``)
    keeps its ``image`` value; ``np.zeros(shape)`` makes it 0.

    The sum runs over the p^2 in-patch offsets, each one strided slice-add
    of a whole row of ``patches``. The offsets go in reverse order, so every
    pixel adds its patch values in the order of the patches' corners.
    """
    out = np.array(image, dtype=float)
    if out.ndim != 2:
        raise ValueError("a 2-d image is required")
    h, w = out.shape
    p = patch_side
    expected = patch_count(h, w, p, stride)
    patches = np.asarray(patches, dtype=float)
    if patches.shape != (p * p, expected):
        raise ValueError(f"patch matrix has shape {patches.shape}, expected "
                         f"({p * p}, {expected})")
    nr = (h - p) // stride + 1
    nc = (w - p) // stride + 1
    grid = patches.reshape(p, p, nr, nc)
    acc, cnt = np.zeros((2, h, w))
    for dr in reversed(range(p)):
        rows = slice(dr, dr + (nr - 1) * stride + 1, stride)
        for dc in reversed(range(p)):
            cols = slice(dc, dc + (nc - 1) * stride + 1, stride)
            acc[rows, cols] += grid[dr, dc]
            cnt[rows, cols] += 1.0
    np.divide(acc, cnt, out=out, where=cnt > 0)
    return np.clip(out, 0.0, 255.0, out=out)
