"""Host-time ledger: charge cProfile self time to simulator layers.

The layer map below is the fixed vocabulary every rvbench trace uses.
A function belongs to the layer of the ``src/repro`` file that defines
it; code the block-compiling ISS generates at run time (``<block@pc>``)
belongs to ``riscv``; everything else -- numpy, asyncio, the rest of the
standard library and the benchmark's own frames -- is ``ext``.  C
builtins are not a layer of their own: their time is charged to the
layer of each calling function, in proportion to the time the profiler
records on each caller edge, so ``len()`` called from the ICAP parser
counts as ICAP time.

The ledger reads the profiler's raw entries (``Profile.getstats()``),
which are keyed by code object.  ``pstats`` keys functions by
(file, line, name) and silently merges entries that share one -- such
as ISS blocks compiled at the same pc for different firmware images --
so its totals undercount the ISS.
"""

from __future__ import annotations

import cProfile
import fnmatch
import os
from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional, Tuple, Union

#: layer -> file patterns relative to ``src/repro``.  A file belongs to
#: the layer of its most specific matching pattern (an exact path beats
#: a ``dir/*`` glob, which beats the ``*`` catch-all); no file may be
#: claimed by two layers at the same specificity (test_rvbench checks).
LAYER_PATTERNS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/*",),
    "core.dma": ("core/dma.py",),
    "core.stream": ("core/axis2icap.py", "core/rp_control.py",
                    "core/rvcap.py", "axi/stream.py", "axi/stream_switch.py",
                    "axi/isolator.py"),
    "core.hwicap": ("core/hwicap.py",),
    "fpga.icap": ("fpga/icap.py", "fpga/config_memory.py", "fpga/frames.py",
                  "fpga/packets.py", "fpga/compression.py",
                  "fpga/scrubber.py", "utils/crc.py"),
    "fpga.bitgen": ("fpga/*",),
    "axi": ("axi/*",),
    "mem": ("mem/*",),
    "riscv": ("riscv/*", "firmware/*"),
    "drivers": ("drivers/*",),
    "sched": ("sched/*",),
    "accel": ("accel/*",),
    "power": ("power/*",),
    "verify": ("verify/*",),
    "obs": ("obs/*",),
    "fat32": ("fat32/*", "soc/sdcard.py", "soc/spi.py"),
    "soc": ("soc/*",),
    "other": ("*",),
}

#: numpy, asyncio, the rest of the stdlib and the benchmark itself
EXT = "ext"
LAYERS: Tuple[str, ...] = (*LAYER_PATTERNS, EXT)

_GENERATED_ISS_PREFIX = "<block@"

#: a profiler entry's identity: the code object's id, or a builtin's name
_Key = Union[int, str]


def _specificity(pattern: str) -> int:
    if pattern == "*":
        return 0
    return 1 if any(ch in pattern for ch in "*?[") else 2


def claims(relpath: str) -> List[Tuple[int, str]]:
    """Every (specificity, layer) whose patterns match ``relpath``."""
    return [(_specificity(p), layer)
            for layer, patterns in LAYER_PATTERNS.items()
            for p in patterns if fnmatch.fnmatchcase(relpath, p)]


def layer_of_relpath(relpath: str) -> str:
    """Layer of a file given by its path relative to ``src/repro``."""
    return max(claims(relpath))[1]


class LayerMap:
    """Classifies code objects for one ``repro`` source tree."""

    def __init__(self, package_dir: str) -> None:
        self._prefix = os.path.realpath(package_dir) + os.sep
        self._cache: Dict[str, str] = {}

    def file_layer(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            path = os.path.realpath(filename)
            if filename.startswith(_GENERATED_ISS_PREFIX):
                layer = "riscv"
            elif path.startswith(self._prefix):
                layer = layer_of_relpath(
                    path[len(self._prefix):].replace(os.sep, "/"))
            else:
                layer = EXT
            self._cache[filename] = layer
        return layer

    def code_layer(self, code: Any) -> Optional[str]:
        """Layer of a profiler entry's code; None for a C builtin."""
        if isinstance(code, str):
            return None
        return self.file_layer(code.co_filename)


def _key(code: Any) -> _Key:
    return code if isinstance(code, str) else id(code)


def ledger(profiler: cProfile.Profile, layer_map: LayerMap
           ) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-layer ``self_s``/``share``/``calls_in`` plus the profile total.

    ``self_s`` sums each entry's inline time; a builtin's is split over
    its caller edges, and any part no edge accounts for (a call made
    from the frame that enabled the profiler) goes to the layer that
    calls it most.  ``calls_in`` counts calls into a Python function of
    a layer from a function of another layer; a builtin caller, such as
    asyncio's ``Context.run``, counts as its owning layer.
    """
    entries = profiler.getstats()
    callers: DefaultDict[_Key, List[Tuple[Any, Any]]] = defaultdict(list)
    for entry in entries:
        for sub in entry.calls or ():
            callers[_key(sub.code)].append((entry, sub))

    owner: Dict[_Key, str] = {}
    for entry in entries:
        layer = layer_map.code_layer(entry.code)
        if layer is None:
            heaviest = max(callers[_key(entry.code)],
                           key=lambda edge: edge[1].inlinetime, default=None)
            layer = EXT if heaviest is None else (
                layer_map.code_layer(heaviest[0].code) or EXT)
        owner[_key(entry.code)] = layer

    self_s = {layer: 0.0 for layer in LAYERS}
    calls_in = {layer: 0 for layer in LAYERS}
    total = 0.0
    for entry in entries:
        key = _key(entry.code)
        total += entry.inlinetime
        layer = owner[key]
        if layer_map.code_layer(entry.code) is None:
            charged = 0.0
            for caller, sub in callers[key]:
                self_s[owner[_key(caller.code)]] += sub.inlinetime
                charged += sub.inlinetime
            self_s[layer] += entry.inlinetime - charged
            continue
        self_s[layer] += entry.inlinetime
        calls_in[layer] += sum(sub.callcount for caller, sub in callers[key]
                               if owner[_key(caller.code)] != layer)

    table = {
        layer: {
            "self_s": self_s[layer],
            "share": self_s[layer] / total if total > 0 else 0.0,
            "calls_in": calls_in[layer],
        }
        for layer in LAYERS
    }
    return table, total


def call_count(profiler: cProfile.Profile, path_suffix: str, name: str) -> int:
    """Calls of function ``name`` defined in a file ending in ``path_suffix``."""
    return sum(entry.callcount for entry in profiler.getstats()
               if not isinstance(entry.code, str)
               and entry.code.co_name == name
               and entry.code.co_filename.replace(os.sep, "/")
               .endswith(path_suffix))
