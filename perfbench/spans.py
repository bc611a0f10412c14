"""In-memory span tracer and the wrappers that attach it to the program.

A span covers one call into a layer. Spans nest on a stack; when one
ends, its duration is charged to its parent's child time, and its self
time (duration minus child time) to its ``(layer, name)`` slot. Only the
per-slot call count and self time are kept, so a run of millions of
spans holds a few hundred numbers. Self times of all spans plus the
root's uncovered time add up to the traced wall time by construction;
:meth:`SpanTracer.accounting_error` checks that the stack stayed
balanced so they really do.

:func:`instrument` installs the wrappers by replacing class attributes
of the program for the duration of a ``with`` block and restores the
originals afterwards. Wrappers only time and forward, so a traced run
computes exactly what an untraced one does.
"""

from __future__ import annotations

import importlib
import pkgutil
from contextlib import contextmanager
from time import perf_counter
from types import MethodType
from typing import Callable, Dict, Iterator, List, Tuple

from layermap import (BINDER, LAYERS, METHOD_SPANS, QDISC_BASE, QDISC_METHODS,
                      SCHEDULERS, layer_of_module)


class SpanTracer:
    """Per-thread span stack with per-``(layer, name)`` count and self time.

    ``stack`` holds the child time of every open span; ``stack[0]`` is
    the root's, i.e. the time the top-level spans covered.
    """

    def __init__(self) -> None:
        self.stack: List[float] = [0.0]
        self.slots: Dict[Tuple[str, str], List[float]] = {}
        self._handler_slots: Dict[str, Dict[object, List[float]]] = {}
        self._t0 = 0.0
        self.wall_s = 0.0

    def begin(self) -> None:
        self._t0 = perf_counter()

    def end(self) -> None:
        self.wall_s = perf_counter() - self._t0

    def slot(self, layer: str, name: str) -> List[float]:
        """The ``[count, self_s]`` accumulator of one span name."""
        return self.slots.setdefault((layer, name), [0, 0.0])

    def wrap(self, fn: Callable, slot: List[float]) -> Callable:
        """``fn`` with every call recorded as a span charged to ``slot``."""
        stack = self.stack
        push, pop = stack.append, stack.pop
        clock = perf_counter

        def span(*args, **kwargs):
            push(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = pop()
                stack[-1] += dur
                slot[0] += 1
                slot[1] += dur - child

        return span

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one span (for calls the benchmark makes)."""
        return self.wrap(fn, self.slot(layer, name))(*args, **kwargs)

    def handler_slot(self, kind: str, fn: Callable) -> List[float]:
        """Slot for a callback, named ``"<kind> <qualname>"`` and charged to
        the layer of the module defining the function underneath any
        ``functools.partial`` layers."""
        by_code = self._handler_slots.setdefault(kind, {})
        code = getattr(fn, "__code__", None)  # functions and bound methods
        slot = by_code.get(code) if code is not None else None
        if slot is not None:
            return slot
        func = fn
        while getattr(func, "func", None) is not None:
            func = func.func
        func = getattr(func, "__func__", func)
        key = getattr(func, "__code__", None) or type(func)
        slot = by_code.get(key)
        if slot is None:
            from repro.telemetry.profiler import callback_category

            module = getattr(func, "__module__", None) or type(func).__module__
            slot = self.slot(layer_of_module(module),
                             f"{kind} {callback_category(fn)}")
            by_code[key] = slot
        return slot

    # -- results -------------------------------------------------------------

    def count(self, layer: str, name: str) -> int:
        return int(self.slots.get((layer, name), (0, 0.0))[0])

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer; ``other`` includes the root's residual."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _name), (_n, self_s) in self.slots.items():
            out[layer] += self_s
        out["other"] += self.wall_s - self.stack[0]
        return out

    def accounting_error(self) -> float:
        """Seconds by which span self times fail to add up to the time
        the top-level spans covered (0 up to rounding when balanced)."""
        if len(self.stack) != 1:
            return float("inf")
        return abs(sum(s for _n, s in self.slots.values()) - self.stack[0])


def _all_subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _all_subclasses(sub)


@contextmanager
def instrument(tracer: SpanTracer):
    """Wrap the program's layer entry points in spans of ``tracer``."""
    import repro.core

    for info in pkgutil.iter_modules(repro.core.__path__, "repro.core."):
        importlib.import_module(info.name)  # every qdisc class exists now
    saved: List[Tuple[type, str, object]] = []

    def patch(cls: type, attr: str, new: object) -> None:
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    for module, cls_name, attr, layer in METHOD_SPANS:
        cls = getattr(importlib.import_module(module), cls_name)
        patch(cls, attr, tracer.wrap(cls.__dict__[attr],
                                     tracer.slot(layer, f"{cls_name}.{attr}")))

    base = getattr(importlib.import_module(QDISC_BASE[0]), QDISC_BASE[1])
    for cls in set(_all_subclasses(base)):
        for attr in QDISC_METHODS:
            if attr in cls.__dict__:
                patch(cls, attr, tracer.wrap(
                    cls.__dict__[attr],
                    tracer.slot("core", f"{cls.__name__}.{attr}")))

    stack = tracer.stack
    push, pop = stack.append, stack.pop
    clock = perf_counter
    handler_slot = tracer.handler_slot

    def make_fire(callback: Callable, slot: List[float]) -> Callable:
        def fire():
            push(0.0)
            t0 = clock()
            try:
                return callback()
            finally:
                dur = clock() - t0
                child = pop()
                stack[-1] += dur
                slot[0] += 1
                slot[1] += dur - child

        return fire

    def dispatch_span(callback: Callable) -> Callable:
        return make_fire(callback, handler_slot("dispatch", callback))

    fire_code = make_fire(None, None).__code__
    from repro.sim.engine import Simulator

    for attr in SCHEDULERS:
        orig = Simulator.__dict__[attr]
        timed = tracer.wrap(orig, tracer.slot("sim", f"Simulator.{attr}"))

        # schedule() delegates zero delays to schedule_now(): the inner
        # call sees an already wrapped callback and is neither re-wrapped
        # nor counted twice.
        def scheduler(sim, when, callback, _orig=orig, _timed=timed):
            if getattr(callback, "__code__", None) is fire_code:
                return _orig(sim, when, callback)
            return _timed(sim, when, dispatch_span(callback))

        def scheduler_now(sim, callback, _orig=orig, _timed=timed):
            if getattr(callback, "__code__", None) is fire_code:
                return _orig(sim, callback)
            return _timed(sim, dispatch_span(callback))

        patch(Simulator, attr,
              scheduler_now if attr == "schedule_now" else scheduler)

    module, cls_name, attr = BINDER
    host_cls = getattr(importlib.import_module(module), cls_name)
    orig_bind = host_cls.__dict__[attr]

    def bind(host, port_number, receiver):
        slot = tracer.handler_slot("receiver", receiver)
        owner = getattr(receiver, "__self__", None)
        if owner is not None:
            # Keep it a bound method: the fluid tier finds a flow's
            # listener through the receiver's __self__.
            receiver = MethodType(tracer.wrap(receiver.__func__, slot), owner)
        else:
            receiver = tracer.wrap(receiver, slot)
        return orig_bind(host, port_number, receiver)

    patch(host_cls, attr, bind)
    try:
        yield tracer
    finally:
        for cls, attr, orig in reversed(saved):
            setattr(cls, attr, orig)
