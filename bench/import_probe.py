"""Cumulative import seconds of each module loaded by ``import qfp.cli``.

Prints one JSON object, module name -> seconds from the start to the end of
its first import, nested imports included (the "cumulative" column of
``python -X importtime``).  ``-X importtime`` itself misses modules loaded
through ``importlib.import_module``, which is how scipy loads
``scipy.stats`` and ``scipy.optimize`` on first attribute access, so this
times ``importlib._bootstrap._find_and_load``, the function both import
paths go through.
"""

import importlib._bootstrap as bootstrap
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

original = bootstrap._find_and_load
seconds: dict[str, float] = {}


def timed(name, import_):
    start = time.perf_counter()
    try:
        return original(name, import_)
    finally:
        # a nested call for a module still initializing returns at once;
        # the outermost call is the longest
        seconds[name] = max(seconds.get(name, 0.0),
                            time.perf_counter() - start)


bootstrap._find_and_load = timed
try:
    import qfp.cli  # noqa: E402,F401
finally:
    bootstrap._find_and_load = original
print(json.dumps(seconds))
