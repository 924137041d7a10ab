"""Run configuration and the flat key=value config-file format."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .agents import StepSchedule
from .network import SCHEDULE_KINDS


@dataclass
class GraphSpec:
    """Parameters handed to the schedule builder."""

    kind: str = "static_ring"
    num_agents: int = 5
    window: int = 1
    period: int = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"graph kind must be one of {SCHEDULE_KINDS}")
        if self.num_agents < 1:
            raise ValueError("num_agents must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")


@dataclass
class RunConfig:
    """Everything a simulation run needs besides the data itself."""

    lam: float = 0.1
    mu: float = 0.05
    alpha: float = 1.0
    steps: StepSchedule = field(default_factory=StepSchedule)
    graph: GraphSpec = field(default_factory=GraphSpec)
    max_rounds: int = 200
    stop_tol: float = 0.0
    metric_stride: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0 or self.alpha <= 0:
            raise ValueError("lam, mu and alpha must be positive")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be nonnegative")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")
        if self.metric_stride < 1:
            raise ValueError("metric_stride must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def load_config(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines are
    skipped. Returns the raw string mapping."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, "
                                 f"got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            mapping[key] = value
    return mapping


_STEP_KEYS = {f.name for f in fields(StepSchedule)}
_GRAPH_KEYS = {"graph": "kind", "agents": "num_agents", "window": "window",
               "period": "period", "graph_seed": "seed"}
_RUN_KEYS = {"lam", "mu", "alpha", "max_rounds", "stop_tol",
             "metric_stride", "seed"}

_INT_KEYS = {"inner_max_iter", "agents", "window", "period", "graph_seed",
             "max_rounds", "metric_stride", "seed"}
_STR_KEYS = {"variant", "d_mode", "graph"}


def _convert(key: str, value):
    if not isinstance(value, str):
        return value
    if key in _STR_KEYS:
        return value
    if key == "period" and value.strip().lower() == "none":
        return None
    if key in _INT_KEYS:
        return int(value)
    return float(value)


def build_run_config(mapping: dict = None, **overrides) -> RunConfig:
    """Assemble a RunConfig from a string mapping (e.g. a parsed config
    file) plus keyword overrides; overrides win. Unknown keys are left for
    the caller to consume and do not fail here."""
    merged = dict(mapping or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    if "rounds" in merged and "max_rounds" not in merged:
        merged["max_rounds"] = merged.pop("rounds")
    step_kwargs, graph_kwargs, run_kwargs = {}, {}, {}
    for key, value in merged.items():
        if key in _STEP_KEYS:
            step_kwargs[key] = _convert(key, value)
        elif key in _GRAPH_KEYS:
            graph_kwargs[_GRAPH_KEYS[key]] = _convert(key, value)
        elif key in _RUN_KEYS:
            run_kwargs[key] = _convert(key, value)
    return RunConfig(steps=StepSchedule(**step_kwargs),
                     graph=GraphSpec(**graph_kwargs), **run_kwargs)
