"""Run configuration and the flat key=value config-file format."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .agents import StepSchedule, check_finite, check_integer
from .network import schedule_period


@dataclass
class GraphSpec:
    """Parameters handed to the schedule builder: integers, ``period``
    when set, that ``network.schedule_period`` accepts."""

    kind: str = "static_ring"
    num_agents: int = 5
    window: int = 1
    period: int = None
    seed: int = 0

    def __post_init__(self):
        check_integer(self, "num_agents", "window", "seed")
        if self.period is not None:
            check_integer(self, "period")
        schedule_period(self.kind, self.num_agents, self.window, self.period)


@dataclass
class RunConfig:
    """Everything a simulation run needs besides the data itself; every
    float field must be finite, and every int field an integer.

    ``lam``, ``mu`` and ``alpha`` are the values that ``cli`` and
    ``denoise_image`` pass into the ``ProblemData`` they build; a run
    takes these three from its problem, not from the config.
    """

    lam: float = 0.1
    mu: float = 0.05
    alpha: float = 1.0
    steps: StepSchedule = field(default_factory=StepSchedule)
    graph: GraphSpec = field(default_factory=GraphSpec)
    max_rounds: int = 200
    metric_stride: int = 1
    seed: int = 0

    def __post_init__(self):
        check_finite(self, "lam", "mu", "alpha")
        check_integer(self, "max_rounds", "metric_stride", "seed")
        if self.lam <= 0 or self.mu <= 0 or self.alpha <= 0:
            raise ValueError("lam, mu and alpha must be positive")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be nonnegative")
        if self.metric_stride < 1:
            raise ValueError("metric_stride must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def load_config(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blank lines are
    skipped, a key set twice raises ValueError. Returns the string mapping."""
    mapping, where = {}, {}
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
            if key in mapping:
                raise ValueError(f"{path}: key {key!r} is set on lines "
                                 f"{where[key]} and {lineno}")
            mapping[key], where[key] = value, lineno
    return mapping


_TYPES = {"int": int, "float": float, "str": str}
# config key -> (section, field, type), from the string annotations
_KEYS = {names.get(f.name, f.name): (section, f.name, _TYPES[f.type])
         for section, cls, names in (
             ("run", RunConfig, {}), ("steps", StepSchedule, {}),
             ("graph", GraphSpec, {"kind": "graph", "num_agents": "agents",
                                   "seed": "graph_seed"}))
         for f in fields(cls) if f.type in _TYPES}


def convert(key, value: str, kind):
    """The string ``value`` of config key ``key`` as a ``kind``."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"config key {key!r} expects {kind.__name__}, "
                         f"got {value!r}") from None


def check_keys(mapping, own=()) -> None:
    """Raise ValueError, listing the valid keys, for a key of ``mapping``
    that is neither a run key nor in ``own``, the keys a caller reads."""
    valid = {*_KEYS, *own}
    unknown = sorted(set(mapping) - valid)
    if unknown:
        raise ValueError(f"unknown config key(s) {str(unknown)[1:-1]}; valid "
                         f"keys: {', '.join(sorted(valid, key=str.lower))}")


def build_run_config(mapping: dict = None, **overrides) -> RunConfig:
    """Assemble a RunConfig from a string mapping (e.g. a parsed config
    file) plus keyword overrides; overrides that are not None win. String
    values are converted to the type of the field they set. An unknown key
    raises ValueError listing the valid keys (``check_keys``), so a caller
    takes out the keys it reads itself first."""
    merged = dict(mapping or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    check_keys(merged)
    kwargs = {"run": {}, "steps": {}, "graph": {}}
    for key, value in merged.items():
        section, name, kind = _KEYS[key]
        if isinstance(value, str):
            value = convert(key, value, kind)
        kwargs[section][name] = value
    return RunConfig(steps=StepSchedule(**kwargs["steps"]),
                     graph=GraphSpec(**kwargs["graph"]), **kwargs["run"])
