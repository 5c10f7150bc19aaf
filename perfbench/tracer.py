"""Per-function call counts and times for the idamp modules, kept as aggregates.

``Tracer.install()`` wraps every public function (and every public method of a
public class) defined in the traced modules, and rebinds the wrapper in every
``idamp`` namespace that holds the original, so a name imported with
``from .kernels import n_particle_amplitude`` is traced too. ``uninstall()``
puts every original back. Nothing is recorded per call beyond a few running
sums, so a million calls cost no memory.

Aggregates are keyed ``<module>.<qualname>``; ``snapshot()`` flattens them to
``<key>.calls``, ``<key>.s`` (inclusive seconds) and ``<key>.self_s`` (minus
the time of wrapped children), plus the argument- and result-based counters
in ``_HOOKS``. A function that does not exist simply never appears, so a later
rename or removal reads as zero instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "idamp"

TRACED_MODULES = (
    "cli",
    "experiments",
    "sequences",
    "kernels",
    "amplitudes",
    "derivation",
    "sampling",
)


class Tracer:
    def __init__(self):
        self.hook_errors = 0
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        # key -> [calls, inclusive seconds, self seconds, active depth]
        self._agg: dict[str, list] = {}
        self._counters: dict[str, float] = {}
        self._unique: set[int] = set()

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these objects.
        self._agg.clear()
        self._counters.clear()
        self._unique.clear()

    # -- patching ---------------------------------------------------------

    def _targets(self):
        """(key, owner, attribute, function) for every function to wrap."""
        for short in TRACED_MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{name}", module, name, obj
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(member):
                            yield f"{short}.{name}.{attr}", obj, attr, member

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for key, owner, attr, function in list(self._targets()):
            wrapper = self._wrap(key, function)
            wrappers[id(function)] = wrapper
            self._patch(owner, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, key: str, function):
        agg = self._agg
        stack = self._stack
        hook = _HOOKS.get(key)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            entry = agg.get(key)
            if entry is None:
                entry = agg[key] = [0, 0.0, 0.0, 0]
            entry[3] += 1
            stack.append(0.0)
            result = None
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                entry[3] -= 1
                entry[0] += 1
                entry[2] += elapsed - children
                if entry[3] == 0:  # recursion: count the outermost call once
                    entry[1] += elapsed
                if stack:
                    stack[-1] += elapsed
                if hook is not None:
                    try:
                        hook(self, args, result)
                    except Exception:  # a changed signature must not stop the run
                        self.hook_errors += 1

        return wrapper

    # -- results ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self._counters[name] = max(self._counters.get(name, 0.0), value)

    def snapshot(self) -> dict[str, float]:
        """Flat per-name values accumulated since the last reset."""
        flat: dict[str, float] = dict(self._counters)
        for key, (calls, inclusive, self_time, _) in self._agg.items():
            flat[f"{key}.calls"] = calls
            flat[f"{key}.s"] = inclusive
            flat[f"{key}.self_s"] = self_time
        calls = flat.get("kernels.n_particle_amplitude.calls", 0)
        if calls:
            flat["kernels.n_particle_amplitude.unique_frac"] = len(self._unique) / calls
        return flat


# -- hooks: counters that need a call's arguments or result -----------------


def _ryser_sizes(tracer: Tracer, args, result) -> None:
    n = len(args[0])
    tracer.count(f"kernels.permanent_ryser.calls.n{n}")
    tracer.count("kernels.permanent_ryser.terms", n * 2**n)


def _amplitude_inputs(tracer: Tracer, args, result) -> None:
    matrix, exchange_class = args[0], args[1]
    tracer._unique.add(hash((str(exchange_class), matrix.shape, matrix.tobytes())))


def _clamps(tracer: Tracer, args, result) -> None:
    value = float(args[0])
    if value > 1.0:
        tracer.count("amplitudes.clamp_probability.clamped")
        tracer.maximum("amplitudes.clamp_probability.max_overshoot", value - 1.0)


def _config_count(qty_key: str):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.count(qty_key, len(result))

    return hook


_HOOKS = {
    "kernels.permanent_ryser": _ryser_sizes,
    "kernels.n_particle_amplitude": _amplitude_inputs,
    "amplitudes.clamp_probability": _clamps,
    "sequences.all_configurations": _config_count("sequences.all_configurations.configs"),
    "sequences.distinct_configurations": _config_count(
        "sequences.distinct_configurations.configs"
    ),
}
