"""The four benchmark workloads: inputs made from a seed, one execution of
the program, and the checks run on its outputs.

Every seed poses the same optimisation problem with its features relabelled:
the synthetic workloads permute the rows (features) of the data, and
``denoise128`` applies one permutation inside every aligned 2x2 pixel block,
which permutes the pixels of every 8x8 stride-2 patch the same way. The
method is equivariant to such a relabelling, so every seed follows the same
gap trajectory up to rounding and the crossing round of the gap target does
not move; the bytes the program sees still change with the seed. Drawing a
new instance per seed instead moves ``run_s`` by about 15 %, because the
sweep count of the power iteration in ``core.sigma_max`` depends on the
spectrum of each instance.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from distdict import config as dd_config
from distdict.core import ProblemData
from distdict import denoise as dd_denoise
from distdict import metrics as dd_metrics
from distdict import network as dd_network
from distdict import protocol as dd_protocol
from distdict import synthetic as dd_synthetic

import checks

clock = time.monotonic

STANDARD_SEED = 42        # the standard instance of make_standard_problem
NET_INSTANCE_SEED = 7     # planted model of compare_net
NET_BLOCK_SIZES = (4, 8, 12, 16)
NOISE_SEED = 0            # noise field of denoise128, as `distdict denoise`
NOISE_SIGMA = 25.5
BYTES_PER_ENTRY = 8


@dataclass
class Probe:
    """What one execution leaves behind: the time round 1 began, the time
    each round of the tracked run ended and the last observed state."""

    t_start: float = None
    stamps: list = field(default_factory=list)
    state: object = None

    def observe(self, state):
        self.stamps.append(clock())
        self.state = state


class Harness:
    """Hooks that let the benchmark see inside a run from outside the
    package: the end of ``init_agents`` marks the start of round 1, and the
    ``run`` that ``denoise_image`` calls gets the benchmark's observer and the
    schedule built during set-up."""

    def __init__(self):
        self.probe = Probe()
        self.schedule = None
        init_agents = dd_protocol.init_agents
        run = dd_denoise.run

        @functools.wraps(init_agents)
        def started(*args, **kwargs):
            out = init_agents(*args, **kwargs)
            if self.probe.t_start is None:
                self.probe.t_start = clock()
            return out

        @functools.wraps(run)
        def observed_run(problem, config, schedule=None, observer=None):
            def both(state):
                if observer is not None:
                    observer(state)
                self.probe.observe(state)

            return run(problem, config, schedule or self.schedule, both)

        dd_protocol.init_agents = started
        dd_denoise.run = observed_run

    def fresh_probe(self):
        self.probe = Probe()
        return self.probe


@dataclass
class Inputs:
    problem: object = None
    config: object = None
    schedule: object = None
    clean: np.ndarray = None
    noisy: np.ndarray = None
    S_blocks: list = None
    baseline_config: object = None


@dataclass
class Outputs:
    trace: object
    state: object
    stamps: list
    t_start: float
    baseline: object = None
    image: np.ndarray = None


def link_bytes(schedule, rounds, exchanges, M, K):
    """Bytes sent over graph links (self-loops excluded): each exchange
    sends one M x K matrix of float64 along every in-link of the phase."""
    links = [int(A.sum()) - A.shape[0] for A in schedule.adjacency]
    total = sum(links[nu % len(links)] for nu in range(rounds))
    return total * exchanges * M * K * BYTES_PER_ENTRY


def first_crossing(trace, target):
    """First recorded round at which the stationarity gap falls to the
    target from above."""
    for k in range(1, len(trace.nu)):
        if trace.delta[k] <= target < trace.delta[k - 1]:
            return trace.nu[k]
    raise checks.CheckFailed(f"gap never reached {target} "
                             f"(last {trace.delta[-1]:.4g})")


def row_within(trace, budget):
    """Index of the last recorded row within a message budget."""
    idx = [i for i, m in enumerate(trace.messages) if m <= budget]
    return idx[-1]


class Workload:
    """One benchmark workload. Subclasses fix the sizes and override
    ``build``, ``execute`` and ``check_extra``."""

    name = ""
    rounds = 0
    stride = 1
    target = 0.0    # stationarity-gap target of time_to_gap_s
    drop = None     # required ratio of the initial to the final gap

    def config_mapping(self):
        raise NotImplementedError

    def build(self, seed, timings):
        raise NotImplementedError

    def execute(self, inputs, harness):
        raise NotImplementedError

    def make_config(self, timings):
        t = clock()
        config = dd_config.build_run_config(self.config_mapping())
        timings["config"] = clock() - t
        return config

    def make_schedule(self, config, timings):
        g = config.graph
        t = clock()
        schedule = dd_network.build_schedule(g.kind, g.num_agents,
                                             window=g.window, seed=g.seed,
                                             period=g.period)
        timings["schedule"] = clock() - t
        return schedule

    def time_to_gap(self, out):
        nu = first_crossing(out.trace, self.target)
        return out.stamps[nu - 1] - out.t_start

    def link_bytes(self, inputs):
        M, K = self.message_shape(inputs)
        return link_bytes(inputs.schedule, self.rounds, 2, M, K)

    def message_shape(self, inputs):
        return inputs.problem.M, inputs.problem.K

    def check(self, inputs, out):
        """Run every check that applies; raises CheckFailed."""
        p, state = inputs.problem, out.state
        agents = state.agents
        D = [a.D for a in agents]
        X = [a.X for a in agents]
        checks.check_tracker_mean([a.tracker for a in agents], D, X,
                                  inputs.S_blocks)
        checks.check_column_norms(D, p.alpha)
        checks.check_doubly_stochastic(inputs.schedule.weights,
                                       inputs.schedule.adjacency)
        checks.check_objective(out.trace.objective[-1], D, X, inputs.S_blocks,
                               p.lam, p.mu)
        checks.check_messages(state.messages, state.nu)
        checks.check_messages(out.trace.messages[-1], out.trace.nu[-1])
        checks.check_messages(state.messages, self.rounds)
        if self.drop:
            checks.check_gap_drop(out.trace.delta, self.drop)
        self.check_extra(inputs, out)

    def check_extra(self, inputs, out):
        pass


def permuted_rows(S, seed):
    return S[np.random.default_rng(seed).permutation(S.shape[0])]


def split_columns(S, sizes):
    bounds = np.cumsum((0,) + tuple(sizes))
    return [S[:, lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]


class Synthetic(Workload):
    """The standard instance (M=16, K=24, N=200) on a ring of 5 agents."""

    agents = 5
    variant = "linearized"

    def config_mapping(self):
        return {"agents": self.agents, "graph": "static_ring",
                "variant": self.variant, "max_rounds": self.rounds,
                "metric_stride": self.stride, "seed": 0}

    def build(self, seed, timings):
        config = self.make_config(timings)
        t = clock()
        _, standard = dd_synthetic.make_standard_problem(
            seed=STANDARD_SEED, num_agents=self.agents)
        S = permuted_rows(np.hstack(standard.S_blocks), seed)
        blocks = split_columns(S, standard.block_sizes)
        problem = ProblemData(S_blocks=blocks, K=standard.K, lam=standard.lam,
                              mu=standard.mu, alpha=standard.alpha)
        timings["instance"] = clock() - t
        schedule = self.make_schedule(config, timings)
        return Inputs(problem=problem, config=config, schedule=schedule,
                      S_blocks=[b.copy() for b in blocks])

    def execute(self, inputs, harness):
        probe = harness.fresh_probe()
        trace = dd_protocol.run(inputs.problem, inputs.config,
                                inputs.schedule, probe.observe)
        return Outputs(trace=trace, state=probe.state, stamps=probe.stamps,
                       t_start=probe.t_start)


class SynthLin(Synthetic):
    name = "synth_lin"
    variant = "linearized"
    rounds = 340
    stride = 1
    target = 0.475
    drop = 2.5


class SynthPlain(Synthetic):
    name = "synth_plain"
    variant = "plain"
    rounds = 200
    stride = 10
    target = 0.565
    drop = 3.0

    def check_extra(self, inputs, out):
        checks.check_no_caps(out.trace.flags)


def scramble_blocks(img, seed):
    """Apply one seed-chosen permutation inside every aligned 2x2 block."""
    perm = list(itertools.permutations(range(4)))
    p = np.array(perm[np.random.default_rng(seed).integers(len(perm))])
    h, w = img.shape
    blocks = img.reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(h // 2, w // 2, 4)[:, :, p]
    return blocks.reshape(h // 2, w // 2, 2, 2).transpose(0, 2, 1, 3) \
        .reshape(h, w)


def patch_blocks(image, side, stride, num_agents):
    """Mean-removed patches scaled by 1/255 and split into contiguous column
    blocks, remainder to the first ones: the coding data of denoise_image."""
    h, w = image.shape
    cols = [image[r:r + side, c:c + side].reshape(-1)
            for r in range(0, h - side + 1, stride)
            for c in range(0, w - side + 1, stride)]
    P = np.array(cols, dtype=float).T
    P = (P - P.mean(axis=0)) / 255.0
    base, extra = divmod(P.shape[1], num_agents)
    sizes = [base + (i < extra) for i in range(num_agents)]
    return split_columns(P, sizes)


class Denoise128(Workload):
    """denoise_image on the built-in 128x128 image plus Gaussian noise:
    8x8 patches at stride 2, 64 atoms, 10 agents on a path."""

    name = "denoise128"
    rounds = 100
    stride = 5
    target = 0.155
    drop = 1.4
    side = 128
    patch, patch_stride, atoms = 8, 2, 64
    min_gain_db = 3.0

    def config_mapping(self):
        return {"lam": "0.125", "mu": "0.0625", "alpha": "1.0",
                "agents": "10", "graph": "static_path",
                "max_rounds": self.rounds, "metric_stride": self.stride,
                "seed": 0}

    def build(self, seed, timings):
        config = self.make_config(timings)
        t = clock()
        clean = dd_synthetic.make_test_image(self.side).astype(float)
        noise = np.random.default_rng(NOISE_SEED).standard_normal(clean.shape)
        noisy = np.clip(clean + NOISE_SIGMA * noise, 0.0, 255.0)
        clean, noisy = scramble_blocks(clean, seed), scramble_blocks(noisy,
                                                                     seed)
        timings["instance"] = clock() - t
        schedule = self.make_schedule(config, timings)
        return Inputs(config=config, schedule=schedule, clean=clean,
                      noisy=noisy)

    def message_shape(self, inputs):
        return self.patch * self.patch, self.atoms

    def execute(self, inputs, harness):
        probe = harness.fresh_probe()
        harness.schedule = inputs.schedule
        result = dd_denoise.denoise_image(
            inputs.noisy, inputs.config, patch_side=self.patch,
            stride=self.patch_stride, num_atoms=self.atoms)
        return Outputs(trace=result.trace, state=probe.state,
                       stamps=probe.stamps, t_start=probe.t_start,
                       image=result.image)

    def check(self, inputs, out):
        # the coding data is rebuilt here, outside set-up and timing
        if inputs.problem is None:
            config = inputs.config
            inputs.S_blocks = patch_blocks(inputs.noisy, self.patch,
                                           self.patch_stride,
                                           config.graph.num_agents)
            inputs.problem = ProblemData(
                S_blocks=inputs.S_blocks, K=self.atoms, lam=config.lam,
                mu=config.mu, alpha=config.alpha)
        super().check(inputs, out)

    def check_extra(self, inputs, out):
        checks.check_denoised(inputs.clean, inputs.noisy, out.image,
                              self.min_gain_db)


class CompareNet(Workload):
    """Tracked linearized rounds against diffusion_baseline at an equal
    message budget, 40 agents on a time-varying ring with uneven blocks."""

    name = "compare_net"
    rounds = 25
    stride = 5
    target = 0.72
    agents = 40

    def config_mapping(self):
        return {"agents": self.agents, "graph": "tv_ring_partition",
                "window": 2, "variant": "linearized",
                "max_rounds": self.rounds, "metric_stride": self.stride,
                "seed": 0}

    def build(self, seed, timings):
        config = self.make_config(timings)
        sizes = [NET_BLOCK_SIZES[i % len(NET_BLOCK_SIZES)]
                 for i in range(self.agents)]
        t = clock()
        instance, _ = dd_synthetic.make_synthetic(
            M=16, K=24, N=sum(sizes), num_agents=1, k0=8, noise_sigma=0.01,
            seed=NET_INSTANCE_SEED, lam=config.lam, mu=config.mu,
            alpha=config.alpha)
        blocks = split_columns(permuted_rows(instance.S, seed), sizes)
        problem = ProblemData(S_blocks=blocks, K=24, lam=config.lam,
                              mu=config.mu, alpha=config.alpha)
        timings["instance"] = clock() - t
        schedule = self.make_schedule(config, timings)
        baseline_config = dd_config.build_run_config(
            dict(self.config_mapping(), max_rounds=2 * self.rounds))
        return Inputs(problem=problem, config=config, schedule=schedule,
                      S_blocks=[b.copy() for b in blocks],
                      baseline_config=baseline_config)

    def execute(self, inputs, harness):
        probe = harness.fresh_probe()
        trace = dd_protocol.run(inputs.problem, inputs.config,
                                inputs.schedule, probe.observe)
        baseline = dd_metrics.diffusion_baseline(
            inputs.problem, inputs.baseline_config, inputs.schedule)
        return Outputs(trace=trace, state=probe.state, stamps=probe.stamps,
                       t_start=probe.t_start, baseline=baseline)

    def link_bytes(self, inputs):
        M, K = self.message_shape(inputs)
        return (link_bytes(inputs.schedule, self.rounds, 2, M, K)
                + link_bytes(inputs.schedule, 2 * self.rounds, 1, M, K))

    def check_extra(self, inputs, out):
        budget = 2 * self.rounds
        tracked = out.trace.delta[row_within(out.trace, budget)]
        base = out.baseline.delta[row_within(out.baseline, budget)]
        checks.check_messages(out.baseline.messages[-1], budget, per_round=1)
        checks.check_gap_order(tracked, base)


WORKLOADS = {w.name: w for w in (SynthLin(), SynthPlain(), Denoise128(),
                                 CompareNet())}
