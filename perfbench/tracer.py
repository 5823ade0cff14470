"""In-memory span tracer that wraps stacksim's public entry points.

Each traced entry point becomes a span. A span's self time is its duration
minus the time of the spans it called, so the self times of all spans plus
the time spent under no span add up to the traced wall time. Spans are
aggregated per name as they close (call count, self seconds, and call counts
per (caller, callee) pair); nothing is written until the workload ends.

A wrapper replaces the function everywhere a caller looks it up: every
attribute of every loaded ``stacksim`` module that is the original function
object. A target that no longer exists is skipped, and a counter hook that no
longer fits the code it reads is switched off, so their metrics are absent
rather than the run crashing.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

clock = time.monotonic


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (caller span or None, callee span) -> calls
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        self.spans: list[str] = []  # names of spans that were installed
        self.counters: dict = {}  # span or observer -> counters its hooks feed
        self.broken: set = set()  # spans and observers whose hooks failed
        self._stack: list[list] = []  # [name, child seconds] per open span

    def _hook(self, name, hook, *args):
        if hook is None or name in self.broken:
            return None
        try:
            return hook(*args)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.broken.add(name)
            return None

    def span(self, name, fn, before=None, after=None):
        """Wrap `fn` as span `name`.

        `before(args, kwargs)` runs ahead of the span and returns a token;
        `after(token, args, kwargs, result)` runs once the span has closed.
        """
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = self._hook(name, before, args, kwargs)
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_s += duration
            self._hook(name, after, token, args, kwargs, result)
            return result

        return wrapper

    def observe(self, name, fn, after):
        """Wrap `fn` to feed counters only; it opens no span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self._hook(name, after, None, args, kwargs, result)
            return result

        return wrapper


def _resolve(path: str):
    """'pkg.mod:Class.attr' -> (owner object, attribute name), or None."""
    mod_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def patch(target: str, make_wrapper) -> bool:
    """Replace the object at `target` with `make_wrapper(original)`.

    Module-level functions are replaced in every loaded stacksim module that
    holds the same object, so callers that imported the name directly see
    the wrapper too. Methods are replaced on their class.
    """
    found = _resolve(target)
    if found is None:
        return False
    owner, attr = found
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stacksim" or mod_name.startswith("stacksim.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
    return True
