"""Span tracing of usdsep's public functions, installed from outside the package.

Every public function of the traced modules is replaced, in each usdsep
module namespace that holds it, by a wrapper that records one span per call:
the lookup site (for example ``usdsep.cone.nnls``), start, end, the span
open when it was called, and the job id.  Spans stay in flat arrays in
memory and are written out once, at the end of the run.  Nothing in the
package is edited; ``uninstall`` puts every original object back.

Per-layer metrics are named ``<module>.<function>.<stat>``.  When
``<module>`` is the module that defines the function the stat covers every
call site; otherwise it covers only calls looked up through that module
(``simulator.reciprocal_set.calls`` counts the simulator's own calls).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import tracemalloc
from array import array

import numpy as np

TRACED_MODULES = ("instance", "usd", "cone", "numerics", "simulator", "serialize", "cli")
# Functions whose peak traced allocation is recorded as <key>.peak_mib.
PEAK_TRACKED = ("instance.make_instance", "usd.build_measurement", "simulator.multicopy_measurement")
JOB_SPAN = "bench.job"
MIB = 1024.0 * 1024.0


def _nbytes(obj, attr: str) -> int:
    """Computed size of an array attribute, 0 when the attribute does not exist."""
    value = getattr(obj, attr, None)
    return int(getattr(value, "nbytes", 0))


# Counters derived from return values: key -> function(result) -> {counter: amount}.
OBSERVERS = {
    "instance.make_instance": lambda r: {"instance.projector_bytes": _nbytes(r, "projectors")},
    "usd.build_measurement": lambda r: {
        "usd.measurement_bytes": _nbytes(r, "elements") + _nbytes(r, "failure_op")
    },
    "simulator.multicopy_measurement": lambda r: {"simulator.multicopy_bytes": _nbytes(r, "elements")},
    "serialize.dumps": lambda r: {"serialize.bytes_out": len(r.encode("utf-8"))},
    "cli.main": lambda r: {"cli.exit_nonzero": int(r != 0)},
    "cone.certify": lambda r: {
        "cone.ray_classes": sum(s.rays for s in r.parties),
        "cone.extreme_rays": sum(s.extreme for s in r.parties),
    },
    "simulator.run_discrimination": lambda r: {"simulator.trials": r.trials},
    "simulator.run_multicopy_discrimination": lambda r: {"simulator.trials": r.trials},
}


class Tracer:
    """In-memory span store plus the counters observed at span boundaries.

    With ``peaks`` set, only the PEAK_TRACKED functions are wrapped and their
    peak traced allocation is recorded; tracemalloc slows every Python
    allocation, so peaks come from a pass of their own.
    """

    def __init__(self, peaks: bool = False):
        self.track_peaks = peaks
        self.sites: list[str] = []
        self.site_keys: list[str] = []
        self._site_ids: dict[str, int] = {}
        self.site = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counters: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def site_id(self, site: str, key: str) -> int:
        if site not in self._site_ids:
            self._site_ids[site] = len(self.sites)
            self.sites.append(site)
            self.site_keys.append(key)
        return self._site_ids[site]

    def open(self, sid: int) -> int:
        idx = len(self.start)
        self.site.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def run_job(self, job_id: int, fn, *args):
        """Run one job under a root span so module shares have a denominator."""
        self.job_id = job_id
        idx = self.open(self.site_id(JOB_SPAN, JOB_SPAN))
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.job_id = -1

    def _wrap(self, fn, site: str, key: str):
        sid = self.site_id(site, key)
        observe = None if self.track_peaks else OBSERVERS.get(key)
        peak = self.track_peaks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Only the outermost peak-tracked call owns tracemalloc, so a
            # nested one cannot reset the peak its caller is measuring.
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            idx = self.open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if own_peak:
                    _, top = tracemalloc.get_traced_memory()
                    tracemalloc.stop()
                    self.peaks[key] = max(self.peaks.get(key, 0.0), top / MIB)
            if observe is not None:
                for name, amount in observe(result).items():
                    self.count(name, amount)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of TRACED_MODULES wherever usdsep holds it."""
        package = importlib.import_module("usdsep")
        defining = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"usdsep.{short}")
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                key = f"{short}.{name}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if key in PEAK_TRACKED or not self.track_peaks:
                        defining[obj] = key
        sites = [package] + [
            importlib.import_module(f"usdsep.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                key = defining.get(obj) if inspect.isfunction(obj) else None
                if key is None:
                    continue
                self._originals.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, f"{mod.__name__}.{attr}", key))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def arrays(self) -> dict:
        return {
            "site": np.frombuffer(self.site, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, sites=np.array(self.sites), **self.arrays())

    def metrics(self) -> dict:
        """Per-layer metrics: calls, self time, counters and module shares, or peaks."""
        if self.track_peaks:
            return {f"{key}.peak_mib": peak for key, peak in self.peaks.items()}
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        out: dict[str, float] = {}
        job_total = 0.0
        for sid, site in enumerate(self.sites):
            mask = spans["site"] == sid
            calls, self_s = int(mask.sum()), float(own[mask].sum())
            key = self.site_keys[sid]
            if key == JOB_SPAN:
                job_total += float((spans["end"] - spans["start"])[mask].sum())
                out["share.bench"] = out.get("share.bench", 0.0) + self_s
                continue
            names = [key]
            site_name = site.split(".", 1)[1]
            if site_name != key and "." in site_name:
                names.append(site_name)  # site-level view, e.g. simulator.reciprocal_set
            for name in names:
                out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            module = key.split(".", 1)[0]
            out[f"share.{module}"] = out.get(f"share.{module}", 0.0) + self_s
        for name in [n for n in out if n.startswith("share.")]:
            out[name] = out[name] / job_total if job_total > 0 else 0.0
        out.update(self.counters)
        classes = out.get("cone.ray_classes", 0)
        out["cone.vec_herm_per_class"] = out.get("numerics.vec_herm.calls", 0) / classes if classes else 0.0
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so a span's children are disjoint sub-intervals
    of it and their durations simply add up.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered
