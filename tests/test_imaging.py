"""PGM I/O, patch extraction and image reassembly."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distdict import (PgmError, assemble_patches, extract_patches,
                      partition_columns, patch_count, read_pgm, write_pgm)

from oracles import assemble_patches_loop, coverage_counts


# ---------------------------------------------------------------------------
# PGM parsing


def test_ascii_pgm_parses_row_major(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_text("P2 2 2 255 0 128 255 64")
    img = read_pgm(path)
    assert img.dtype == np.uint8
    assert np.array_equal(img, [[0, 128], [255, 64]])


def test_ascii_pgm_accepts_comments_and_newlines(tmp_path):
    path = tmp_path / "commented.pgm"
    path.write_text("P2\n# a comment\n2 1\n255\n7\n9\n")
    assert np.array_equal(read_pgm(path), [[7, 9]])


def test_ascii_pgm_reads_a_random_image_row_major(tmp_path):
    rng = np.random.default_rng(81)
    img = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
    rows = "\n".join(" ".join(str(v) for v in row) for row in img)
    path = tmp_path / "random_ascii.pgm"
    path.write_text(f"P2\n3 4\n255\n{rows}\n")
    assert np.array_equal(read_pgm(path), img)


def test_binary_pgm_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(80)
    img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    path = tmp_path / "round.pgm"
    write_pgm(path, img)
    assert path.read_bytes()[:11] == b"P5\n7 5\n255\n"
    assert np.array_equal(read_pgm(path), img)


@pytest.mark.parametrize("file_exists", [False, True])
def test_pgm_writer_rejects_non_finite_pixels_before_opening(tmp_path,
                                                             file_exists):
    img = np.full((2, 3), 100.0)
    img[0, 1], img[1, 2] = np.nan, np.inf
    path = tmp_path / "diverged.pgm"
    old = b"P5\n1 1\n255\n\x07"
    if file_exists:
        path.write_bytes(old)
    with pytest.raises(ValueError, match="2 non-finite pixel"):
        write_pgm(path, img)
    if file_exists:
        assert path.read_bytes() == old  # not truncated
    else:
        assert not path.exists()


@pytest.mark.parametrize("file_exists", [False, True])
@pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
def test_pgm_writer_rejects_an_image_with_a_zero_side_before_opening(
        tmp_path, shape, file_exists):
    # read_pgm rejects the header such an image would get
    path = tmp_path / "empty.pgm"
    old = b"P5\n1 1\n255\n\x07"
    if file_exists:
        path.write_bytes(old)
    with pytest.raises(ValueError, match="zero side"):
        write_pgm(path, np.zeros(shape))
    if file_exists:
        assert path.read_bytes() == old
    else:
        assert not path.exists()


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_text("P2 2 2 511 0 1 2 3")
    with pytest.raises(PgmError):
        read_pgm(path)


def test_pgm_truncated_payload_reports_an_offset(tmp_path):
    path = tmp_path / "short.pgm"
    header = b"P5 3 3 255\n"
    path.write_bytes(header + b"\x00\x01")  # 2 of 9 payload bytes
    with pytest.raises(PgmError) as info:
        read_pgm(path)
    assert info.value.offset >= len(header)


def test_ascii_pgm_truncated_raster_reports_the_count_found(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P2\n3 2\n255\n1 2 3\n4 5")  # 5 of 6 values
    with pytest.raises(PgmError, match="truncated pixel data, expected 6 "
                                       "values, found 5") as info:
        read_pgm(path)
    assert info.value.offset == 20


@pytest.mark.parametrize("raster, message, offset", [
    (b"1 2 x 4", "expected pixel value, got b'x'", 15),
    (b"1 256 3 4", "pixel value 256 exceeds maxval", 13),
    (b"1#2 3 4", "expected pixel value, got b'1#2'", 11),  # '#' mid-token
])
def test_ascii_pgm_rejects_a_bad_pixel_at_its_offset(tmp_path, raster,
                                                       message, offset):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2 2 2 255\n" + raster)
    with pytest.raises(PgmError, match=message) as info:
        read_pgm(path)
    assert info.value.offset == offset


@pytest.mark.parametrize("data, expected, found", [
    # a header that claims 10^12 pixels: no array is sized from it
    (b"P2\n1000000 1000000\n255\n1 2 3\n", 10 ** 12, 3),
    # a trailing comment is skipped whole, not read as a pixel
    (b"P2 3 2 255 1 2 3 4 5 # end\n", 6, 5),
], ids=["huge-header", "trailing-comment"])
def test_ascii_pgm_truncation_counts_the_values_the_file_holds(
        tmp_path, data, expected, found):
    path = tmp_path / "short.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmError, match=f"truncated pixel data, expected "
                                       f"{expected} values, found {found}"
                       ) as info:
        read_pgm(path)
    assert info.value.offset == len(data)


def test_pgm_rejects_a_bad_magic_number(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P3 2 2 255 0 0 0 0")
    with pytest.raises(PgmError) as info:
        read_pgm(path)
    assert info.value.offset == 0


# ---------------------------------------------------------------------------
# patch geometry


def test_patch_count_formula_examples():
    assert patch_count(8, 8, 8, 1) == 1
    assert patch_count(10, 10, 8, 1) == 9
    assert patch_count(512, 512, 8, 1) == 255025
    assert patch_count(64, 64, 8, 2) == 841


def test_patch_count_rejects_oversized_patches():
    with pytest.raises(ValueError):
        patch_count(4, 4, 8, 1)
    with pytest.raises(ValueError):
        patch_count(8, 8, 0, 1)


def test_extracted_columns_enumerate_corners_row_major():
    img = np.arange(16.0).reshape(4, 4)
    patches = extract_patches(img, 2, 2)
    assert patches.shape == (4, 4)
    # corner order: (0,0), (0,2), (2,0), (2,2); each column is the patch
    # flattened row by row
    assert np.array_equal(patches[:, 0], [0, 1, 4, 5])
    assert np.array_equal(patches[:, 1], [2, 3, 6, 7])
    assert np.array_equal(patches[:, 2], [8, 9, 12, 13])
    assert np.array_equal(patches[:, 3], [10, 11, 14, 15])


@pytest.mark.parametrize("dtype, side, patch, stride", [
    (float, 5, 1, 1),     # the windows reshape to a view of the image
    (float, 9, 3, 2),
    (np.uint8, 6, 2, 1),
])
def test_extracted_matrix_is_a_new_array_the_caller_may_overwrite(
        dtype, side, patch, stride):
    # denoise_image centers and scales the matrix in place
    img = np.arange(side * side).reshape(side, side).astype(dtype)
    before = img.copy()
    patches = extract_patches(img, patch, stride)
    assert patches.dtype == np.float64
    assert patches.flags.c_contiguous and patches.flags.owndata
    assert not np.shares_memory(patches, img)
    patches[...] = -1.0
    assert np.array_equal(img, before) and img.dtype == dtype


def test_block_partition_covers_all_patches_contiguously():
    img = np.arange(100.0).reshape(10, 10)
    patches = extract_patches(img, 3, 1)  # 64 patches
    slices = partition_columns(patches.shape[1], 5)
    sizes = [s.stop - s.start for s in slices]
    assert sum(sizes) == patches.shape[1]
    assert max(sizes) - min(sizes) <= 1
    assert slices[0].start == 0
    for left, right in zip(slices, slices[1:]):
        assert left.stop == right.start
    blocks = [patches[:, s] for s in slices]
    assert np.array_equal(np.hstack(blocks), patches)


def test_dataset_blocks_match_the_slices():
    # the agents' blocks, as denoise_image cuts them, rebuild the matrix
    img = np.arange(36.0).reshape(6, 6)
    patches = extract_patches(img, 3, 1)
    blocks = [patches[:, s] for s in partition_columns(patches.shape[1], 3)]
    rebuilt = np.hstack(blocks)
    assert np.array_equal(rebuilt, patches)
    assert isinstance(patches, np.ndarray)


# ---------------------------------------------------------------------------
# reassembly


def test_exact_codes_reproduce_the_image():
    rng = np.random.default_rng(82)
    img = rng.uniform(0, 255, size=(12, 12))
    patches = extract_patches(img, 4, 2)
    # dictionary = identity, codes = the patches themselves
    D = np.eye(16)
    out = assemble_patches(D @ patches, np.zeros(img.shape), 4, 2)
    covered = coverage_counts(12, 12, 4, 2) > 0
    assert np.max(np.abs(out[covered] - img[covered])) <= 0.5


def test_zero_codes_give_a_black_image():
    img = np.full((9, 9), 200.0)
    patches = extract_patches(img, 3, 3)
    D = np.zeros((9, 4))
    X = np.zeros((4, patches.shape[1]))
    out = assemble_patches(D @ X, np.zeros(img.shape), 3, 3)
    assert np.array_equal(out, np.zeros((9, 9)))


def test_overlap_averaging_uses_the_true_coverage_counts():
    h = w = 12
    p, s = 5, 3
    counts = coverage_counts(h, w, p, s)
    patches = extract_patches(np.zeros((h, w)), p, s)
    ones = np.ones((p * p, patches.shape[1]))
    # accumulating all-ones patches and dividing by the coverage must give
    # exactly 1 on covered pixels and 0 elsewhere
    out = assemble_patches(ones, np.zeros((h, w)), p, s)
    assert np.array_equal(out > 0, counts > 0)
    assert np.allclose(out[counts > 0], 1.0, atol=1e-15)


def test_uncovered_pixels_keep_the_clipped_base_and_values_clip():
    base = np.full((8, 8), 300.0)
    base[::2] = -20.0
    patches = extract_patches(base, 4, 3)
    hot = np.full((16, patches.shape[1]), 300.0)
    out = assemble_patches(hot, base, 4, 3)
    counts = coverage_counts(8, 8, 4, 3)
    assert np.count_nonzero(counts == 0) == 15  # the last row and column
    assert np.array_equal(out[counts == 0],
                          np.clip(base, 0.0, 255.0)[counts == 0])
    assert {0.0, 255.0} <= set(out[counts == 0])
    assert np.all(out[counts > 0] == 255.0)
    assert base[0, 0] == -20.0  # the base is not written


def test_assemble_rejects_a_base_that_is_not_a_2d_image():
    patches = np.zeros((16, 4))
    for base in ((7, 7), np.zeros(49), np.zeros((1, 7, 7))):
        with pytest.raises(ValueError, match="a 2-d image is required"):
            assemble_patches(patches, base, 4, 3)


@st.composite
def patch_geometries(draw):
    p = draw(st.integers(1, 6), label="patch side")
    h = draw(st.integers(p, 20), label="height")
    w = draw(st.integers(p, 20), label="width")
    stride = draw(st.integers(1, p + 2), label="stride")
    return h, w, p, stride


@settings(max_examples=100, deadline=None)
@given(geometry=patch_geometries(), seed=st.integers(0, 2 ** 32 - 1))
@example(geometry=(128, 128, 8, 2), seed=0)   # the denoise128 geometry
@example(geometry=(7, 13, 4, 3), seed=1)      # bare right and bottom strips
def test_assemble_equals_the_per_patch_loop(geometry, seed):
    h, w, p, stride = geometry
    # values beyond [0, 255] exercise the clip, overlaps the summation order
    rng = np.random.default_rng(seed)
    patches = rng.normal(100.0, 120.0,
                         size=(p * p, patch_count(h, w, p, stride)))
    base = rng.normal(100.0, 120.0, size=(h, w))
    got = assemble_patches(patches, base, p, stride)
    want = assemble_patches_loop(patches, (h, w), p, stride)
    covered = coverage_counts(h, w, p, stride) > 0
    assert got[covered].tobytes() == want[covered].tobytes()
    assert (got[~covered].tobytes()
            == np.clip(base, 0.0, 255.0)[~covered].tobytes())


def test_assemble_rejects_a_wrong_patch_matrix_shape():
    with pytest.raises(ValueError):
        assemble_patches(np.zeros((16, 3)), np.zeros((12, 12)), 4, 2)
