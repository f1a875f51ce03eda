"""Per-layer spans of a cutglue run, recorded from outside the package.

`Tracer.install` wraps the public functions of every layer module and a few
`Mesh` methods.  It then rebinds each alias another cutglue module took with
`from .x import y` (for example `gluing.side_bundle`, bound at import time)
and the runners held in `suites.SUITES`, so a call through any name is seen.
Hot leaf helpers are left alone: their call counts are so large that the
wrapper would dominate the layer they belong to.

Each call records one span: name, parent span, start, end and, for a few
functions, facts about its arguments or result (bundle and kernel keys,
region size).  Spans stay in memory and are written out once, at the end.
The tracer also times its own work: `install`, and the bookkeeping and
probes each wrapper does outside the call it wraps.  That sum is the
trace overhead; the call of the wrapper itself and the final write of the
spans file are not in it.

Run as a script, it traces one CLI invocation and exits with its code:

    PYTHONPATH=src python3 bench/spans.py SPANS.json run CONFIG [args...]
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("meshes", "operators", "green", "kernels", "euclidean",
          "perturbation", "series", "gluing", "suites", "config")

# Called 10^5 to 10^6 times per run (per quadrature point or per node pair).
LEAVES = frozenset({
    "euclidean.fundamental_solution", "euclidean.sphere_area",
    "kernels.shape_uniform", "kernels.shape_bump", "kernels.shape_triangle",
})

METHODS = {"meshes": ("Mesh.distance_matrix", "Mesh.trim_to_deformed")}


class Tracer:
    """Span recorder for one process; `install` patches cutglue in place."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.suite_of: dict[str, str] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []
        # Objects whose id() appears in a key stay alive, so ids stay unique.
        self._pinned: list = []
        self._kernel_keys: dict[int, tuple] = {}

    # -- probes: facts about one call, stored with its span -------------

    def _pin(self, obj) -> int:
        self._pinned.append(obj)
        return id(obj)

    def _probe_green_bundle(self, a, result):
        return {"key": f"{self._pin(a['mesh'])}|{a['spec']!r}|whole"}

    def _probe_side_bundle(self, a, result):
        return {"key": f"{self._pin(a['mesh'])}|{a['spec']!r}|"
                       f"{self._pin(a['cut'])}|{a['side']}"}

    def _probe_build_mesh_kernel(self, a, result):
        cut = a.get("cut")
        key = (self._pin(a["mesh"]), repr(a["lam"]), repr(a["shape"]),
               None if cut is None else self._pin(cut))
        self._kernel_keys[id(result)] = (weakref.ref(result), key)
        return {"key": f"{key}|unrestricted", "identity": result.is_identity}

    def _probe_restrict_kernel(self, a, result):
        kernel = a["kernel"]
        ref, key = self._kernel_keys.get(id(kernel), (None, None))
        if ref is None or ref() is not kernel:
            key = ("unknown", self._pin(kernel))
        keep = hash(frozenset(int(p) for p in a["keep_nodes"]))
        return {"key": f"{key}|{keep}", "identity": result.is_identity}

    @staticmethod
    def _probe_region(a, result):
        return {"region": int(len(a["mean"]))}

    def _probes(self):
        return {
            "green.green_bundle": self._probe_green_bundle,
            "green.side_bundle": self._probe_side_bundle,
            "kernels.build_mesh_kernel": self._probe_build_mesh_kernel,
            "kernels.restrict_kernel_to_submesh": self._probe_restrict_kernel,
            "perturbation.gaussian_expectation": self._probe_region,
            "perturbation.interaction_z_series": self._probe_region,
        }

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn, probe):
        fid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            record = [fid, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = probe(bound.arguments, result)
            self.overhead_s += (record[2] - enter) + (time.perf_counter() - record[3])
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's entry points and rebind all their aliases."""
        importlib.import_module("cutglue.cli")
        start = time.perf_counter()
        probes = self._probes()
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"cutglue.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in LEAVES):
                    wrapped[obj] = self._wrap(name, obj, probes.get(name))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(f"{layer}.{meth}",
                                              getattr(cls, meth), None))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "cutglue" or mod_name.startswith("cutglue."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])
        suites = sys.modules["cutglue.suites"].SUITES
        for suite, (description, runner) in list(suites.items()):
            suites[suite] = (description, wrapped.get(runner, runner))
            self.suite_of[f"suites.{runner.__name__}"] = suite
        self.overhead_s += time.perf_counter() - start

    def dump(self, path: str) -> None:
        payload = {"names": self.names, "spans": self.spans,
                   "suite_of": self.suite_of, "overhead_s": self.overhead_s}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json.

    Every registered suite gets a `suites.<suite>.s` entry; suites the
    workload does not run read 0.
    """
    names, spans = trace["names"], trace["spans"]
    child_time = defaultdict(float)
    for fid, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    calls = Counter()
    for i, (fid, parent, t0, t1, _) in enumerate(spans):
        name = names[fid]
        self_s[name.split(".")[0]] += (t1 - t0) - child_time[i]
        inclusive[name] += t1 - t0
        calls[name] += 1

    def infos(*fn_names):
        return [info for fid, _, _, _, info in spans
                if info is not None and names[fid] in fn_names]

    bundles = infos("green.green_bundle", "green.side_bundle")
    kernels = infos("kernels.build_mesh_kernel",
                    "kernels.restrict_kernel_to_submesh")
    regions = infos("perturbation.gaussian_expectation",
                    "perturbation.interaction_z_series")

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for name in ("perturbation.gaussian_expectation",
                 "perturbation.interaction_z_series",
                 "perturbation.effective_action_series",
                 "green.green_bundle", "green.side_bundle", "green.full_matrix",
                 "kernels.build_mesh_kernel",
                 "kernels.restrict_kernel_to_submesh",
                 "kernels.deformed_side_nodes",
                 "gluing.glued_series", "gluing.whole_series",
                 "euclidean.sphere_average", "euclidean.extract_profile_f",
                 "series.series_log", "meshes.distance_matrix"):
        out[f"{name}.calls"] = calls[name]
    out["perturbation.region_nodes.max"] = max(
        (r["region"] for r in regions), default=0)
    out["green.bundle_reuse"] = _ratio(len({b["key"] for b in bundles}),
                                       len(bundles))
    out["kernels.build_mesh_kernel.s"] = inclusive["kernels.build_mesh_kernel"]
    out["kernels.kernel_reuse"] = _ratio(len({k["key"] for k in kernels}),
                                         len(kernels))
    out["kernels.identity_share"] = _ratio(
        sum(k["identity"] for k in kernels), len(kernels))
    for fn, suite in trace["suite_of"].items():
        out[f"suites.{suite}.s"] = inclusive[fn]
    out["config.load_config.s"] = inclusive["config.load_config"]
    out["trace.overhead_s"] = trace["overhead_s"]
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: spans.py SPANS.json run CONFIG [cutglue args...]",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from cutglue.cli import main as cli_main
    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
