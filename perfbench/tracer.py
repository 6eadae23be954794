"""Span tracing from outside the program: wrappers on each layer's classes.

:func:`install` replaces the public methods (and every generator method,
since generators are the simulator's processes) of each layer's entry
classes with timing wrappers.  Install before ``build_stack``, so hot
paths that cache bound methods at construction go through them too.

A span is pushed when control enters a layer, or a named sub-span of a
layer (``ftl.write``, ``lsm.merge``), from somewhere else.  A call that
stays inside the current layer only counts a call: it costs no frame, and
its time stays with the span that is already open.  A layer's *self
time* is its spans' wall time minus the wall time of the spans nested in
them.

Generator methods are timed per resumption: the scheduler runs other
processes between two resumptions of one process, so a span's host time
is the sum of its resumptions, not end minus start.  A process spawned
by unwrapped code (a closure, a harness client) is charged to the span
that spawned it.

Wrapping does not touch the simulated timeline: every wrapper forwards
the same values, yields and exceptions in the same order, which the
benchmark proves by comparing the traced run's fingerprint with the
untraced run's.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from typing import Dict, Optional

perf_counter = time.perf_counter
GeneratorType = types.GeneratorType

#: (layer, module, class, {method: sub-span key}).  A method missing from
#: the map is charged to the layer itself; "*" maps every method.
CLASS_SPANS = (
    ("sim", "repro.sim.core", "Simulator", {}),
    ("sim", "repro.sim.core", "Event", {}),
    ("sim", "repro.sim.resources", "Resource", {}),
    ("sim", "repro.sim.resources", "Store", {}),
    ("nand", "repro.nand.chip", "FlashChip", {}),
    ("ocssd", "repro.ocssd.device", "OpenChannelSSD", {}),
    ("ocssd", "repro.ocssd.controller", "Controller", {}),
    ("media", "repro.ox.media", "MediaManager", {}),
    ("qos", "repro.qos.scheduler", "QosScheduler", {}),
    ("ftl", "repro.ox.block", "OXBlock",
     {"write": "ftl.write", "write_proc": "ftl.write",
      "read": "ftl.read", "read_proc": "ftl.read"}),
    ("ftl", "repro.ox.ftl.gc", "GarbageCollector", {"*": "ftl.gc"}),
    ("eleos", "repro.ox.eleos", "OXEleos", {}),
    ("lsm", "repro.lsm.db", "DB",
     {"put": "lsm.put", "put_proc": "lsm.put",
      "get": "lsm.get", "get_proc": "lsm.get"}),
    ("lsm", "repro.lsm.bloom", "BloomFilter", {}),
    ("lightlsm", "repro.lsm.lightlsm", "LightLSMEnv", {}),
    ("lightlsm", "repro.lsm.lightlsm", "_LightLSMWriter", {}),
    ("lightlsm", "repro.lsm.envbase", "WriteDispatcher", {}),
    ("llama", "repro.llama.engine", "LlamaEngine", {}),
)

#: Module-level functions: (layer, module, function, key).  Every loaded
#: ``repro`` module that imported the function by name gets the wrapper.
FUNCTION_SPANS = (
    ("lsm", "repro.lsm.compaction", "merge_into_proc", "lsm.merge"),
)

#: Generator methods whose *simulated* duration (first resumption to
#: return) is also summed, under the given name.
SIM_TIME_SPANS = {
    ("QosScheduler", "channel_acquire_proc"): "qos.wait",
    ("QosScheduler", "background_gate_proc"): "qos.wait",
    ("_LightLSMWriter", "append_block_proc"): "lightlsm.dispatch_wait",
}

#: Span keys per reported layer (self times add up over these).
LAYER_KEYS = {
    "sim": ("sim",),
    "nand": ("nand",),
    "ocssd": ("ocssd",),
    "media": ("media",),
    "qos": ("qos",),
    "ftl": ("ftl", "ftl.write", "ftl.read"),
    "ftl.gc": ("ftl.gc",),
    "eleos": ("eleos",),
    "lsm": ("lsm", "lsm.put", "lsm.get", "lsm.merge"),
    "lightlsm": ("lightlsm",),
    "llama": ("llama",),
}
BENCH = "bench"


class Tracer:
    """The open-span stack and what the closed spans added up to."""

    def __init__(self) -> None:
        self.active = False
        #: Open frames: [layer, key, started, child_seconds].
        self.stack: list = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.sim_s: Dict[str, float] = {}
        #: (key, outcome) counters from result hooks (bloom skips).
        self.outcomes: Dict[str, int] = {}
        self.sim = None

    def reset(self, sim) -> None:
        """Start a new traced round on *sim*."""
        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.sim_s.clear()
        self.outcomes.clear()
        self.sim = sim

    def enter(self, layer: str, key: str):
        stack = self.stack
        if stack:
            top = stack[-1]
            if top[0] == layer and (key == layer or key == top[1]):
                return None
        frame = [layer, key, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def enter_bench(self):
        """Open the harness span around one timed region."""
        self.active = True
        return self.enter(BENCH, BENCH)

    def leave(self, frame) -> None:
        if frame is None:
            return
        elapsed = perf_counter() - frame[2]
        stack = self.stack
        stack.pop()
        key = frame[1]
        self.self_s[key] = self.self_s.get(key, 0.0) + elapsed - frame[3]
        if stack:
            stack[-1][3] += elapsed
        elif key == BENCH:
            self.active = False

    def count(self, key: str) -> None:
        calls = self.calls
        calls[key] = calls.get(key, 0) + 1

    # -- reading the result ---------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s.get(key, 0.0) for key in LAYER_KEYS[layer])

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls.get(key, 0) for key in LAYER_KEYS[layer])


def traced_generator(tracer: Tracer, layer: str, key: str, generator,
                     sim_key: Optional[str] = None):
    """Drive *generator*, timing each resumption as a span of *key*."""
    send, throw = generator.send, generator.throw
    value = None
    error = None
    sim_started = None
    while True:
        frame = None
        if tracer.active:
            frame = tracer.enter(layer, key)
            if sim_key is not None and sim_started is None:
                sim_started = tracer.sim.now
        try:
            if error is None:
                target = send(value)
            else:
                target = throw(error)
        except StopIteration as stop:
            tracer.leave(frame)
            if sim_started is not None:
                tracer.sim_s[sim_key] = (tracer.sim_s.get(sim_key, 0.0)
                                         + tracer.sim.now - sim_started)
            return stop.value
        except BaseException:
            tracer.leave(frame)
            raise
        tracer.leave(frame)
        try:
            value = yield target
            error = None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded inward
            value, error = None, exc


TRACED_CODE = traced_generator.__code__


def _wrap_generator(tracer, layer, key, generator, sim_key=None):
    if generator.gi_code is TRACED_CODE:
        return generator
    wrapped = traced_generator(tracer, layer, key, generator, sim_key)
    # Process names default to the generator's name; keep them.
    wrapped.__name__ = generator.__name__
    wrapped.__qualname__ = generator.__qualname__
    return wrapped


def _method_wrapper(tracer: Tracer, layer: str, key: str, original,
                    sim_key: Optional[str] = None, outcome=None):
    if inspect.isgeneratorfunction(original):
        def generator_wrapper(*args, **kwargs):
            if tracer.active:
                tracer.count(key)
            return _wrap_generator(tracer, layer, key,
                                   original(*args, **kwargs), sim_key)
        generator_wrapper.__wrapped__ = original
        return generator_wrapper

    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.count(key)
            frame = tracer.enter(layer, key)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if outcome is not None:
                outcome(tracer, result)
        else:
            result = original(*args, **kwargs)
        if type(result) is GeneratorType:
            # A plain method handing back a process body (the media
            # manager returns the device's generator): time its
            # resumptions as this layer too.
            result = _wrap_generator(tracer, layer, key, result)
        return result
    wrapper.__wrapped__ = original
    return wrapper


def _spawn_wrapper(tracer: Tracer, original):
    """``Simulator.spawn``: charge an untraced process to its spawner."""
    def spawn(self, generator, name=""):
        if not tracer.active:
            return original(self, generator, name)
        stack = tracer.stack
        if (stack and type(generator) is GeneratorType
                and generator.gi_code is not TRACED_CODE):
            top = stack[-1]
            generator = _wrap_generator(tracer, top[0], top[1], generator)
        tracer.count("sim")
        frame = tracer.enter("sim", "sim")
        try:
            return original(self, generator, name)
        finally:
            tracer.leave(frame)
    spawn.__wrapped__ = original
    return spawn


def _bloom_outcome(tracer: Tracer, result) -> None:
    name = "bloom.negative" if not result else "bloom.positive"
    tracer.outcomes[name] = tracer.outcomes.get(name, 0) + 1


OUTCOMES = {("BloomFilter", "may_contain"): _bloom_outcome}


def _wrappable(name: str, attribute) -> bool:
    if not inspect.isfunction(attribute):
        return False        # properties, static and class methods
    if name.startswith("__"):
        return False
    return not name.startswith("_") or inspect.isgeneratorfunction(attribute)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; the wrappers stay for the process.

    While ``tracer.active`` is false a wrapper only forwards (and still
    wraps the generators it returns, so daemons spawned during build are
    timed once the traced region opens).
    """
    for layer, module_name, class_name, keys in CLASS_SPANS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for name, attribute in list(vars(cls).items()):
            if not _wrappable(name, attribute):
                continue
            if class_name == "Simulator" and name == "spawn":
                setattr(cls, name, _spawn_wrapper(tracer, attribute))
                continue
            key = keys.get(name, keys.get("*", layer))
            setattr(cls, name, _method_wrapper(
                tracer, layer, key, attribute,
                sim_key=SIM_TIME_SPANS.get((class_name, name)),
                outcome=OUTCOMES.get((class_name, name))))
    for layer, module_name, function_name, key in FUNCTION_SPANS:
        original = getattr(importlib.import_module(module_name),
                           function_name)
        wrapper = _method_wrapper(tracer, layer, key, original)
        for module in list(sys.modules.values()):
            if (module is not None
                    and module.__name__.startswith("repro")
                    and getattr(module, function_name, None) is original):
                setattr(module, function_name, wrapper)
