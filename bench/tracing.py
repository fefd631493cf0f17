"""Call tracing of blockcomm's layers from outside the package.

A Tracer wraps chosen functions and keeps, per traced name, the number of
calls, the total time of the outermost calls and the self time (time not
spent in other traced calls). Open calls sit on one stack, so a recursive
call (log_gamma's reflection branch) counts its inner time once as self
time and never twice in the total.

Modules bind functions by name (`from .dcbm import vb_update`), so a
wrapper has to replace the function object in every blockcomm module that
holds it, not only in the module that defines it; `patched` does that and
puts every original back on exit.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory call statistics plus free-form counters filled by hooks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(CallStats)
        self.counters = defaultdict(float)
        self._child_time = []  # one slot per open call: time of its traced children
        self._depth = defaultdict(int)

    def wrap(self, key, fn, hook=None):
        """Return fn wrapped to record under key; hook(tracer, result) runs after."""
        clock = self.clock
        child_time = self._child_time
        depth = self._depth
        st = self.stats[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            outer = depth[key] == 0
            depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[key] -= 1
                st.calls += 1
                st.self_s += elapsed - child_time.pop()
                if outer:
                    st.total_s += elapsed
                if child_time:
                    child_time[-1] += elapsed
            if hook is not None:
                hook(self, result)
            return result

        return traced


def package_modules(package):
    """The package and every loaded submodule of it."""
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


@contextmanager
def patched(tracer, targets):
    """Install tracer wrappers for targets; restore the originals on exit.

    targets: iterable of (module name, attribute, key, hook). Each target's
    function object is replaced under every name that binds it in every
    loaded blockcomm module. A target whose module lacks the attribute
    is skipped and its key yielded in the absent list, so a later refactor
    that renames a private phase does not break the run.
    """
    modules = package_modules("blockcomm")
    by_name = {m.__name__: m for m in modules}
    restore = []
    absent = []
    try:
        for module_name, attr, key, hook in targets:
            home = by_name.get(module_name)
            fn = getattr(home, attr, None) if home is not None else None
            if not callable(fn):
                absent.append(key)
                continue
            wrapper = tracer.wrap(key, fn, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, name, fn))
                        setattr(module, name, wrapper)
        yield absent
    finally:
        for module, name, fn in reversed(restore):
            setattr(module, name, fn)
