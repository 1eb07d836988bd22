"""Timing wrappers patched onto the program's public functions.

The benchmark measures every layer from outside: it replaces a public
function or method with a wrapper that times the call, and puts the
original back afterwards.  Wrappers nest on a per-thread stack, so each
layer gets its inclusive time and its *self* time (inclusive minus the
time of wrapped calls nested inside it).

The accumulators live in shared memory from a ``fork`` context.  The
serving tier forks its shard workers, so wrappers installed before a
cluster starts keep working inside the shards and their figures reach
the benchmark process.  A call that is outermost inside a forked
process ran on behalf of a client that was blocked on it; its time is
also kept as *remote* time, split by whether it ran on the shard's main
thread (control-plane commands) or on a connection thread (wire
requests), so the blocked client layer can be charged only for its own
part.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = ["LayerStat", "Tracer", "Units"]

#: ``units(args, kwargs, result) -> (a, b)``: two work counts per call.
Units = Callable[[tuple, dict, Any], Tuple[float, float]]

_CALLS, _INCL, _SELF, _UNITS_A, _UNITS_B, _REMOTE_CTRL, _REMOTE_WIRE = range(7)
_FIELDS = 7


@dataclass(frozen=True)
class LayerStat:
    """Accumulated figures of one layer."""

    calls: float = 0.0
    #: Inclusive time of calls not nested inside the same layer.
    incl_s: float = 0.0
    self_s: float = 0.0
    units_a: float = 0.0
    units_b: float = 0.0
    #: Outermost calls inside forked processes, on their main thread.
    remote_ctrl_s: float = 0.0
    #: Outermost calls inside forked processes, on other threads.
    remote_wire_s: float = 0.0


class Tracer:
    """Patches timing wrappers onto named layers and restores them.

    ``layers`` fixes the set of layer names up front (the shared
    accumulator is sized from it).  :meth:`patch` and
    :meth:`patch_everywhere` install wrappers; :meth:`restore` (or
    leaving :meth:`installed`) puts every original back, also when the
    traced code raised.  Wrappers record only while :meth:`recording`
    is on, a flag that forked shard workers share.
    """

    def __init__(self, layers: Sequence[str]) -> None:
        if len(set(layers)) != len(layers):
            raise ValueError("layer names must be unique")
        self.layers: Tuple[str, ...] = tuple(layers)
        self._index: Dict[str, int] = {n: i for i, n in enumerate(layers)}
        context = multiprocessing.get_context("fork")
        self._acc = context.RawArray("d", len(layers) * _FIELDS)
        self._lock = context.Lock()
        self._active = context.RawValue("b", 0)
        self._pid = os.getpid()
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._forget_stacks)

    # -- patching ------------------------------------------------------

    def index_of(self, layer: str) -> int:
        if layer not in self._index:
            raise KeyError(f"unknown layer {layer!r}")
        return self._index[layer]

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        units: Optional[Units] = None,
        layer_of: Optional[Callable[[tuple, dict], str]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class's own method).

        ``layer_of`` picks the layer per call from the arguments (the
        scheduler's ``run_step(state, name)``); every layer it can
        return must be declared.
        """
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__name__}.{attr} is inherited; patch the "
                    "class that defines it"
                )
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        if not callable(raw):
            raise TypeError(f"{attr} of {owner!r} is not callable")
        wrapped = self._wrap(raw, self.index_of(layer), units, layer_of)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_everywhere(
        self,
        function: Callable[..., Any],
        layer: str,
        *,
        units: Optional[Units] = None,
        layer_of: Optional[Callable[[tuple, dict], str]] = None,
        prefix: str = "repro",
    ) -> int:
        """Wrap ``function`` in every loaded ``prefix`` module binding it.

        ``from module import name`` copies the reference, so a function
        is looked up in each importing module; all of them get the same
        wrapper.  Returns how many bindings were patched.
        """
        index = self.index_of(layer)
        wrapper = self._wrap(function, index, units, layer_of)
        patched = 0
        for name, module in sorted(sys.modules.items()):
            if module is None or not (
                name == prefix or name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        self._active.value = 0
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        """Run ``install(self)``, yield, and restore whatever happens."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        """Let the wrappers record (in this and every forked process)."""
        self._active.value = 1
        try:
            yield
        finally:
            self._active.value = 0

    @property
    def patched_count(self) -> int:
        return len(self._patched)

    # -- benchmark-owned spans -------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as ``layer``."""
        if not self._active.value:
            yield
            return
        index = self.index_of(layer)
        stack = self._stack()
        frame = [0.0, index]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self._close(stack, index, elapsed, frame[0], (0.0, 0.0))

    # -- readout -----------------------------------------------------------

    def snapshot(self) -> Dict[str, LayerStat]:
        """Current figures of every layer (a consistent copy)."""
        with self._lock:
            values = list(self._acc)
        return {
            name: LayerStat(*values[i * _FIELDS:(i + 1) * _FIELDS])
            for i, name in enumerate(self.layers)
        }

    # -- internals -----------------------------------------------------------

    def _forget_stacks(self) -> None:
        # A forked child inherits the forking thread's open frames; they
        # never close there, so start every thread of the child afresh.
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        # Frames are [time of nested wrapped calls, layer index].
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _close(
        self,
        stack: List[List[float]],
        index: int,
        elapsed: float,
        children: float,
        units: Tuple[float, float],
    ) -> None:
        """Account a finished call whose frame was just popped."""
        if stack:
            stack[-1][0] += elapsed
        nested_in_same = any(int(frame[1]) == index for frame in stack)
        base = index * _FIELDS
        remote = not stack and os.getpid() != self._pid
        with self._lock:
            acc = self._acc
            acc[base + _CALLS] += 1.0
            if not nested_in_same:
                acc[base + _INCL] += elapsed
            self_time = elapsed - children
            acc[base + _SELF] += self_time
            acc[base + _UNITS_A] += units[0]
            acc[base + _UNITS_B] += units[1]
            if remote:
                if threading.current_thread() is threading.main_thread():
                    acc[base + _REMOTE_CTRL] += elapsed
                else:
                    acc[base + _REMOTE_WIRE] += elapsed

    def _wrap(
        self,
        function: Callable[..., Any],
        index: int,
        units: Optional[Units],
        layer_of: Optional[Callable[[tuple, dict], str]],
    ) -> Callable[..., Any]:
        tracer = self
        active = self._active
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not active.value:
                return function(*args, **kwargs)
            target = (
                tracer.index_of(layer_of(args, kwargs))
                if layer_of is not None
                else index
            )
            stack = tracer._stack()
            frame = [0.0, target]
            stack.append(frame)
            start = clock()
            finished = False
            result = None
            try:
                result = function(*args, **kwargs)
                finished = True
            finally:
                elapsed = clock() - start
                stack.pop()
                counted = (
                    units(args, kwargs, result)
                    if finished and units is not None
                    else (0.0, 0.0)
                )
                tracer._close(stack, target, elapsed, frame[0], counted)
            return result

        return traced
