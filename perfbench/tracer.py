"""Spans and counters around roofcalc's public functions, from outside src/.

`install()` wraps each function named in TRACED and rebinds the wrapper
in every loaded roofcalc module that binds the original (roofs, for one,
imports exterior_power directly, and the package re-exports most names).
Each wrapper records calls, total time and self time (total minus the
time of traced calls made inside it), and reads work counts from the
return value.  Nothing is written anywhere; `stats` is read at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

TRACED = {
    "rootsys": ("build_root_system",),
    "weyl": ("coset_lengths", "minimal_coset_reps", "orbit"),
    "motive": ("class_of_quotient", "igr_class", "igr_point_count"),
    "reps": ("weight_multiset", "exterior_power", "decompose_levi", "weyl_dimension"),
    "bwb": ("bwb",),
    "roofs": ("verify_roof", "koszul_zero_locus_cohomology"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []  # time spent in traced callees, per open span
        self._systems: set = set()

    def _count(self, name: str, result) -> Dict[str, float]:
        """Work counts read from a traced function's return value."""
        if name == "rootsys.build_root_system":
            if id(result) in self._systems:
                return {}
            self._systems.add(id(result))  # interned: a new object was just built
            return {"roots": len(result.positive_roots)}
        if name in ("weyl.coset_lengths", "weyl.minimal_coset_reps"):
            return {"cosets": len(result)}
        if name == "weyl.orbit":
            return {"points": len(result)}
        if name == "reps.weight_multiset":
            return {"weights": result.total}
        if name == "reps.exterior_power":
            return {"weights": result.total, "distinct": len(result)}
        if name == "reps.decompose_levi":
            return {"irreps": len(result)}
        if name == "bwb.bwb":
            return {"single": result.status == "Single"}
        if name == "roofs.koszul_zero_locus_cohomology":
            return {"first_page_cells": len(result.first_page)}
        return {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats, children = self.stats, self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += spent
                stats[name + ".calls"] += 1
                stats[name + ".s"] += spent
                stats[name + ".self_s"] += spent - inner
            for key, value in self._count(name, result).items():
                stats[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        loaded = [m for k, m in sys.modules.items() if k == "roofcalc" or k.startswith("roofcalc.")]
        for module, names in TRACED.items():
            home = sys.modules[f"roofcalc.{module}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module}.{fn_name}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
