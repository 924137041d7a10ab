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
from .imaging import assemble_patches, extract_patches
from .metrics import MetricsTrace, mean_dictionary
from .protocol import run
from .synthetic import partition_columns

PIXEL_SCALE = 255.0


@dataclass(eq=False)
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
    average intensity; decoding adds the stored means back.
    ``assemble_patches`` averages the decoded patches into the noisy image
    and clips every pixel to [0, 255], so a pixel that no patch covers
    keeps its noisy value, clipped the same way.

    One patch matrix serves the whole pipeline: the patches are centered
    and scaled in place, the agents' blocks are views of it, and once the
    run has returned each agent's codes are decoded into its own columns.
    """
    patches = extract_patches(noisy, patch_side, stride)  # ours to overwrite
    offsets = patches.mean(axis=0)
    patches -= offsets
    patches /= PIXEL_SCALE
    slices = partition_columns(patches.shape[1], config.graph.num_agents)
    problem = ProblemData(S_blocks=[patches[:, s] for s in slices],
                          K=num_atoms, lam=config.lam, mu=config.mu,
                          alpha=config.alpha)
    trace = run(problem, config)
    dictionary = mean_dictionary(trace.state.D)
    codes = problem.groups.unstack(trace.state.X)
    # nothing reads the data once the run is over
    for s, X in zip(slices, codes):
        np.matmul(dictionary, X, out=patches[:, s])
    patches *= PIXEL_SCALE
    patches += offsets
    image = assemble_patches(patches, noisy, patch_side, stride)
    return DenoiseResult(image=image, trace=trace, dictionary=dictionary,
                         codes=codes)
