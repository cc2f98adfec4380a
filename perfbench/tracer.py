"""Per-layer tracing of pleatbend from outside the package.

The tracer wraps the public functions named in TRACED and rebinds each
wrapper in every ``pleatbend.*`` module that holds the original under
the same name, so calls made through module globals (``realize`` calling
``check_adapted``, the CLI calling ``integrate_volume_change``) are seen
as well.  ``MoebiusMap.__post_init__`` is wrapped to count constructions.
Nothing under ``src/`` is edited.

Each traced call is one span: (name, start, end, parent span).  Spans
stay in memory in flat arrays and are written once, by ``save_spans``,
when the run ends.  A function's self time is its span's duration minus
the durations of the traced calls made directly inside it.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# layer (module of pleatbend) -> traced public functions
TRACED = {
    "moebius": ("classify", "fixed_points"),
    "topology": ("parse_word", "build_lamination"),
    "representation": ("evaluate_word", "load_path", "jacobian_rank",
                       "fenchel_nielsen_rep"),
    "pleated": ("check_adapted", "realize", "track_endpoints",
                "bending_data"),
    "volume": ("integrate_volume_change", "orientation_start_endpoints"),
    "cli": ("main",),
}

# functions whose distinct (first, second) argument pairs are counted;
# strings count by value, other arguments by object
DISTINCT = ("representation.evaluate_word", "pleated.check_adapted")


class Tracer:
    """Counts, self times and spans of the traced functions.

    Recording is off until ``enabled`` is set, so warm-up calls made
    after ``install`` are not counted.
    """

    def __init__(self):
        self.enabled = False
        self.names = [f"{mod}.{fn}" for mod, fns in TRACED.items()
                      for fn in fns]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.raised = dict.fromkeys(self.names, 0)
        self.constructed = 0
        # distinct (first, second) argument pairs; the objects themselves
        # are kept alive here so that their id() cannot be reused
        self._alive: dict[int, object] = {}
        self._pairs = {name: set() for name in DISTINCT}
        # span arrays; parent -1 marks a top-level span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []      # open span indices
        self._child: list[float] = []    # time in traced children, per open span

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pleatbend" or name.startswith("pleatbend.")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"pleatbend.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    if getattr(m, fn, None) is orig:
                        setattr(m, fn, wrapper)
        moebius_map = sys.modules["pleatbend.moebius"].MoebiusMap
        post_init = moebius_map.__post_init__

        def counting_post_init(obj):
            if self.enabled:
                self.constructed += 1
            post_init(obj)

        moebius_map.__post_init__ = counting_post_init

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        pairs = self._pairs.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if pairs is not None:
                pairs.add((self._key(args[0]), self._key(args[1])))
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self._stack.append(idx)
            self._child.append(0.0)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                self.span_end[idx] = end
                self._stack.pop()
                inner = self._child.pop()
                self.self_s[name] += (end - start) - inner
                if self._child:
                    self._child[-1] += end - start

        wrapper.__wrapped__ = fn
        return wrapper

    def _key(self, obj):
        if isinstance(obj, str):
            return obj
        self._alive[id(obj)] = obj
        return id(obj)

    # -- results ------------------------------------------------------------

    def metrics(self, speed: float = 1.0) -> dict:
        """Per-layer metrics, name -> (value, unit).  Traced calls run
        in set-up and in the timed run, so the caller passes as
        ``speed`` the host-speed factor over both phases (hostspeed.py);
        every self time is multiplied by it."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name] * speed, "s")
        for name in ("representation.jacobian_rank", "pleated.track_endpoints"):
            out[f"{name}.raised"] = (self.raised[name], "count")
        for name, pairs in self._pairs.items():
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = (
                len(pairs) / calls if calls else 0.0, "ratio")
        out["moebius.MoebiusMap.constructed"] = (self.constructed, "count")
        return out

    def save_spans(self, path: str) -> None:
        """Write the spans as .npz arrays name/parent/start/end plus the
        name table, start and end in seconds of time.perf_counter."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
