"""Grayscale PGM input/output and the overlapping-patch image pipeline."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class PgmError(ValueError):
    """Malformed PGM input; ``offset`` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _next_token(data: bytes, pos: int):
    """Skip whitespace and '#' comments, return (token, start, end)."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("unexpected end of header", n)
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], start, pos


def _header_int(data: bytes, pos: int, what: str):
    token, start, end = _next_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"expected {what}, got {token[:16]!r}", start)
    return int(token), end


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM file with maxval 255.

    Returns a uint8 array of shape (height, width). Any malformed header,
    out-of-range sample or truncated payload raises PgmError with the byte
    offset of the failure; other maxvals are rejected.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic, magic_at, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic {magic[:16]!r}", magic_at)
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}", pos)
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}, only 255 is handled",
                       pos)
    count = width * height
    if magic == b"P5":
        if pos >= len(data) or not data[pos:pos + 1].isspace():
            raise PgmError("expected single whitespace after maxval", pos)
        pos += 1
        if len(data) - pos < count:
            raise PgmError(f"truncated pixel data, expected {count} bytes, "
                           f"found {len(data) - pos}", len(data))
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
    else:
        values = np.empty(count, dtype=np.uint8)
        for k in range(count):
            token, start, pos = _next_token(data, pos)
            if not token.isdigit():
                raise PgmError(f"expected pixel value, got {token[:16]!r}",
                               start)
            v = int(token)
            if v > maxval:
                raise PgmError(f"pixel value {v} exceeds maxval", start)
            values[k] = v
        pixels = values
    return pixels.reshape(height, width).copy()


def write_pgm(path, image, binary: bool = True) -> None:
    """Write an image as PGM with maxval 255. Values are rounded and
    clipped to [0, 255]; ``binary`` picks P5 over P2."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError("a 2-d image is required")
    arr = np.clip(np.rint(arr.astype(float)), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        if binary:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(arr.tobytes())
        else:
            fh.write(f"P2\n{w} {h}\n255\n".encode("ascii"))
            lines = [" ".join(str(v) for v in row) for row in arr]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


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


def assemble_patches(patches, image_shape, patch_side: int,
                     stride: int) -> np.ndarray:
    """Place patch columns at their row-major grid origins and average the
    overlaps; clips to [0, 255]. A pixel no patch covers (the last rows or
    columns when ``stride`` does not divide the side less ``patch_side``)
    comes out 0; ``denoise_image`` fills it with the clipped noisy value.

    The sum runs over the p^2 in-patch offsets, each one strided slice-add
    of a whole row of ``patches``. The offsets go in reverse order, so every
    pixel adds its patch values in the order of the patches' corners.
    """
    h, w = image_shape
    p = patch_side
    expected = patch_count(h, w, p, stride)
    patches = np.asarray(patches, dtype=float)
    if patches.shape != (p * p, expected):
        raise ValueError(f"patch matrix has shape {patches.shape}, expected "
                         f"({p * p}, {expected})")
    nr = (h - p) // stride + 1
    nc = (w - p) // stride + 1
    grid = patches.reshape(p, p, nr, nc)
    acc = np.zeros((h, w))
    cnt = np.zeros((h, w))
    for dr in reversed(range(p)):
        rows = slice(dr, dr + (nr - 1) * stride + 1, stride)
        for dc in reversed(range(p)):
            cols = slice(dc, dc + (nc - 1) * stride + 1, stride)
            acc[rows, cols] += grid[dr, dc]
            cnt[rows, cols] += 1.0
    out = np.divide(acc, cnt, out=np.zeros_like(acc), where=cnt > 0)
    return np.clip(out, 0.0, 255.0)
