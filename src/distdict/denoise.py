"""End-to-end patch-based image denoising on a multi-agent network.

The pipeline slices the noisy image into overlapping patches, removes each
patch's mean intensity, rescales to [0, 1], spreads the patch columns over
the agents, learns a shared dictionary with the network protocol, and
decodes the image from the averaged dictionary and the local codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .core import ProblemData
from .imaging import PatchDataset, assemble_patches, extract_patches
from .metrics import MetricsTrace, mean_dictionary
from .protocol import run

PIXEL_SCALE = 255.0


@dataclass
class DenoiseResult:
    """Reconstructed image plus the artifacts that produced it."""

    image: np.ndarray
    trace: MetricsTrace
    dictionary: np.ndarray
    codes: list = field(default_factory=list)


def denoise_image(noisy, config: RunConfig, *, patch_side: int = 8,
                  stride: int = 2, num_atoms: int = 64) -> DenoiseResult:
    """Learn a dictionary over the network and decode a cleaned image.

    Each patch has its mean removed and is scaled to [0, 1] before coding,
    so the sparse model only represents the contrast around the patch's
    average intensity; decoding adds the stored means back. Overlapping
    decoded patches are averaged and the result clipped to [0, 255].
    """
    noisy = np.asarray(noisy, dtype=float)
    dataset = extract_patches(noisy, patch_side, stride)
    offsets = dataset.patches.mean(axis=0)
    coding = PatchDataset(patches=(dataset.patches - offsets) / PIXEL_SCALE,
                          image_shape=dataset.image_shape,
                          patch_side=patch_side, stride=stride)
    problem = ProblemData(S_blocks=coding.blocks(config.graph.num_agents),
                          K=num_atoms, lam=config.lam, mu=config.mu,
                          alpha=config.alpha)
    trace = run(problem, config)
    dictionary = mean_dictionary(trace.state.D)
    codes = problem.groups.unstack(trace.state.X)
    decoded = PIXEL_SCALE * (dictionary @ np.hstack(codes)) + offsets
    image = assemble_patches(decoded, dataset.image_shape, patch_side, stride)
    return DenoiseResult(image=image, trace=trace, dictionary=dictionary,
                         codes=codes)
