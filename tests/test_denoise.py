"""The end-to-end patch denoising pipeline."""

import tracemalloc

import numpy as np
import pytest

from distdict import (build_run_config, denoise_image, make_test_image,
                      patch_count, psnr_mse)
from distdict.core import max_column_norm

from oracles import coverage_counts, denoise_with_copies


def noisy_pair(seed=0, sigma=25.5, side=32):
    clean = make_test_image(side).astype(float)
    rng = np.random.default_rng(seed)
    noisy = np.clip(clean + sigma * rng.standard_normal(clean.shape), 0.0,
                    255.0)
    return clean, noisy


def small_config(**extra):
    mapping = {"lam": "0.125", "mu": "0.0625", "alpha": "1.0", "agents": "4",
               "graph": "static_path", "max_rounds": "15",
               "metric_stride": "15"}
    mapping.update({k: str(v) for k, v in extra.items()})
    return build_run_config(mapping)


def test_pipeline_produces_a_valid_image_and_trace():
    clean, noisy = noisy_pair()
    result = denoise_image(noisy, small_config(), patch_side=8, stride=4,
                           num_atoms=16)
    assert result.image.shape == clean.shape
    assert result.image.min() >= 0.0 and result.image.max() <= 255.0
    assert result.trace.nu[-1] == 15
    assert result.trace.messages[-1] == 30
    assert max_column_norm(result.dictionary) <= 1.0 + 1e-9
    assert len(result.codes) == 4


def test_pipeline_is_deterministic():
    _, noisy = noisy_pair(seed=3)
    a = denoise_image(noisy, small_config(), patch_side=8, stride=4,
                      num_atoms=16)
    b = denoise_image(noisy, small_config(), patch_side=8, stride=4,
                      num_atoms=16)
    assert np.array_equal(a.image, b.image)
    assert a.trace.objective == b.trace.objective


def test_zero_round_budget_keeps_the_initial_point():
    _, noisy = noisy_pair(seed=4)
    result = denoise_image(noisy, small_config(max_rounds=0), patch_side=8,
                           stride=4, num_atoms=16)
    # codes start at zero, so the model part contributes nothing and the
    # reconstruction is exactly the stored per-patch means
    assert len(result.trace.nu) == 1
    assert all(np.array_equal(X, np.zeros_like(X)) for X in result.codes)


def test_mean_offsets_survive_the_round_trip():
    # with zero rounds the decoded patches are the per-patch means, so the
    # output equals the blurred (patch-mean) version of the noisy image,
    # never the zero image
    _, noisy = noisy_pair(seed=5)
    result = denoise_image(noisy, small_config(max_rounds=0), patch_side=8,
                           stride=4, num_atoms=16)
    assert result.image.mean() > 50.0


def test_short_training_already_improves_psnr():
    clean, noisy = noisy_pair(seed=0, side=32)
    result = denoise_image(noisy, small_config(), patch_side=8, stride=4,
                           num_atoms=16)
    before, _ = psnr_mse(clean, noisy)
    after, _ = psnr_mse(clean, result.image)
    assert after > before


def test_pixels_no_patch_covers_keep_their_noisy_values():
    # 8x8 patches at stride 4 end at row 32 of 35 and column 28 of 31
    clean, noisy = noisy_pair(seed=6, side=35)
    clean, noisy = clean[:, :31], noisy[:, :31]
    result = denoise_image(noisy, small_config(), patch_side=8, stride=4,
                           num_atoms=16)
    bare = coverage_counts(35, 31, 8, 4) == 0
    assert bare[32:].all() and bare[:, 28:].all()
    assert np.count_nonzero(bare) == 3 * 31 + 3 * 32
    assert np.array_equal(result.image[bare], noisy[bare])
    assert psnr_mse(clean, result.image)[0] > psnr_mse(clean, noisy)[0]


def test_pixels_between_patches_keep_their_noisy_values():
    # 4x4 patches at stride 6 cover rows and columns 0-3, 6-9, ..., 24-27
    clean, noisy = noisy_pair(seed=10, side=32)
    result = denoise_image(noisy, small_config(agents=2, max_rounds=3),
                           patch_side=4, stride=6, num_atoms=8)
    bare = coverage_counts(32, 32, 4, 6) == 0
    assert np.count_nonzero(bare) == 32 * 32 - 20 * 20
    assert np.array_equal(result.image[bare], noisy[bare])
    assert psnr_mse(clean, result.image)[0] > psnr_mse(clean, noisy)[0]


def test_uncovered_pixels_are_clipped_like_the_rest():
    _, noisy = noisy_pair(seed=7, side=34)
    noisy[-1] = 300.0
    noisy[:, -1] = -20.0
    result = denoise_image(noisy, small_config(max_rounds=2), patch_side=8,
                           stride=4, num_atoms=16)
    assert np.all(result.image[-1, :-1] == 255.0)
    assert np.all(result.image[:, -1] == 0.0)


@pytest.mark.parametrize("shape, patch, stride, agents", [
    ((32, 32), 8, 4, 4),
    ((35, 33), 8, 3, 3),
    ((29, 31), 6, 2, 7),
    ((40, 40), 8, 2, 40),  # 289 columns: padded multi-agent groups
    ((32, 32), 4, 6, 2),   # bare pixels between the patches
])
def test_one_buffer_pipeline_matches_the_pipeline_of_copies(shape, patch,
                                                            stride, agents):
    _, noisy = noisy_pair(seed=8, side=max(shape))
    noisy = noisy[:shape[0], :shape[1]]
    config = small_config(agents=agents, max_rounds=6, metric_stride=1)
    result = denoise_image(noisy, config, patch_side=patch, stride=stride,
                           num_atoms=16)
    image, trace = denoise_with_copies(noisy, config, patch, stride, 16)
    if agents == 40:
        assert len(result.trace.state.X) < agents
    assert result.trace == trace
    assert np.max(np.abs(result.image - image)) <= 1e-12 * np.max(image)


def test_denoise128_peak_memory_stays_within_four_patch_matrices():
    # the patch matrix, the codes (as large at 64 atoms) and the round's
    # temporaries read 3.3; a pipeline of copies reads 5.6
    _, noisy = noisy_pair(seed=9, side=128)
    config = small_config(agents=10, max_rounds=3, metric_stride=1)
    patch_bytes = 64 * patch_count(128, 128, 8, 2) * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        denoise_image(noisy, config, patch_side=8, stride=2, num_atoms=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / patch_bytes <= 4.0
