"""Per-layer timing taken from outside the package.

The tracer replaces module attributes of distdict with timing wrappers at
the place each caller looks a function up: ``distdict.agents.sigma_max`` is
what ``coding_prox_weight`` calls, ``distdict.core.sigma_max`` what
``x_update_plain`` calls. Spans are named after the module that defines the
function, so both sites above feed ``core.sigma_max``. Self time is a span's
duration minus the part covered by the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

clock = time.monotonic

# module -> the functions looked up through it during an execution
SITES = {
    "protocol": ("run", "coding_prox_weight", "coding_step", "dictionary_step",
                 "init_agents", "grad_dict", "objective_global",
                 "stationarity_gap", "consensus_error", "mean_dictionary",
                 "consensus_step", "tracking_step", "is_b_strongly_connected",
                 "validate_weights"),
    "agents": ("sigma_max", "grad_dict", "d_update_linearized",
               "d_update_plain", "x_update_linearized", "x_update_plain"),
    "core": ("sigma_max", "soft_threshold", "grad_codes",
             "project_dictionary"),
    "metrics": ("diffusion_baseline", "coding_prox_weight", "coding_step",
                "init_agents", "grad_dict", "objective_global",
                "stationarity_gap", "consensus_error", "mean_dictionary",
                "project_dictionary", "x_update_linearized",
                "is_b_strongly_connected"),
    "denoise": ("run", "extract_patches", "assemble_patches"),
}

# the metric recording that run() does after every metric_stride rounds
RECORD_SITES = {("protocol", name) for name in
                ("objective_global", "stationarity_gap", "consensus_error",
                 "mean_dictionary")}


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects self time, inclusive time and call counts per span while
    installed; ``install`` and ``uninstall`` may alternate."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.record_s = 0.0
        self.capped = 0
        self.inner_iters = 0
        self._stack = []        # [span name, time spent in child spans]
        self._wrappers = []
        for mod_name, names in SITES.items():
            module = importlib.import_module(f"distdict.{mod_name}")
            for name in names:
                fn = getattr(module, name)
                self._wrappers.append(
                    (module, name, fn,
                     self._wrap(fn, (mod_name, name) in RECORD_SITES)))

    def _wrap(self, fn, is_record):
        name = span_name(fn)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "core.soft_threshold" and stack \
                    and stack[-1][0] == "core.x_update_plain":
                self.inner_iters += 1
            stack.append([name, 0.0])
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t
                _, child = stack.pop()
                self.self_s[name] += elapsed - child
                self.incl_s[name] += elapsed
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                if is_record:
                    self.record_s += elapsed
            if name == "core.sigma_max" and not out[1]:
                self.capped += 1
            return out

        return wrapper

    def install(self):
        for module, name, _, wrapper in self._wrappers:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, fn, _ in self._wrappers:
            setattr(module, name, fn)
