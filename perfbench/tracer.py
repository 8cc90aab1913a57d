"""Call-time probes that time pndose's layers from outside the program.

A probe replaces a name that pndose looks up when it makes the call (a
module global, or an attribute of a class) with a wrapper that records a
span, and ``Tracer.uninstall`` puts every original object back. Spans
are aggregated by call path, the tuple of names of the enclosing probed
calls, so a traced run holds one record per path however many calls it
makes. A path's self time is its duration minus the durations of the
probed calls made directly inside it; calls do not overlap because the
program is single-threaded, so the self times of all paths under a root
sum to the root's duration.
"""

import importlib
import time

# (owner, attribute, span name). The owner is a module, or "module:Class"
# for an attribute of a class. Several attributes may share a span name;
# none of those pairs calls the other through a probed name.
PROBES = (
    ("pndose.driver", "run_simulation", "driver.run_simulation"),
    ("pndose.driver", "assemble_problem", "driver.assemble_problem"),
    ("pndose.driver", "trace_all_beams", "driver.trace_all_beams"),
    ("pndose.driver", "step_contexts", "driver.step_contexts"),
    ("pndose.driver", "uncollided_dose", "driver.uncollided_dose"),
    ("pndose.driver", "write_outputs", "driver.write_outputs"),
    ("pndose.driver:Problem", "scattering_tables", "driver.scattering_tables"),
    ("pndose.driver", "MomentTables", "physics.moment_tables"),
    ("pndose.driver", "straggling_t", "physics.straggling"),
    ("pndose.driver", "straggling_t_derivative", "physics.straggling"),
    ("pndose.driver", "mix_stopping_power", "physics.mix_stopping_power"),
    ("pndose.angular:PNOperators", "build", "angular.pn_operators_build"),
    ("pndose.driver", "build_stencils", "spatial.build_stencils"),
    ("pndose.dlra", "apply_streaming", "spatial.apply_streaming"),
    ("pndose.driver", "trace_beam", "raytracer.trace_beam"),
    ("pndose.raytracer", "march_ray", "raytracer.march_ray"),
    ("pndose.raytracer", "assemble_energy_operators", "raytracer.assemble_energy_operators"),
    ("pndose.raytracer", "traverse_grid", "raytracer.traverse_grid"),
    ("pndose.driver", "StreamingContext", "dlra.streaming_context"),
    ("pndose.driver", "streaming_step", "dlra.streaming_step"),
    ("pndose.driver", "scattering_step", "dlra.scattering_step"),
    ("pndose.driver", "truncate", "dlra.truncate"),
    ("pndose.dlra", "orthonormal_columns", "dlra.orthonormal_columns"),
    ("pndose.driver", "fullrank_streaming_step", "fullrank.streaming_step"),
    ("pndose.driver", "fullrank_scattering_step", "fullrank.scattering_step"),
)

# Spans whose result is a dense array: its size is added to
# "<span>.bytes_computed".
BYTES_COMPUTED = frozenset({"spatial.apply_streaming"})


def resolve_owner(spec):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span aggregator plus the probes that feed it."""

    def __init__(self):
        self.paths = {}        # path -> [calls, total_s, children_s]
        self.counters = {}
        self.missing = []      # probes whose attribute pndose no longer has
        self._stack = []       # open spans: [path, children_s]
        self._installed = []   # (owner, attribute, original object)

    def call(self, name, fn, args, kwargs):
        path = self._stack[-1][0] + (name,) if self._stack else (name,)
        frame = [path, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            record = self.paths.setdefault(path, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += elapsed
            record[2] += frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
        if name in BYTES_COMPUTED:
            self.count(f"{name}.bytes_computed", result.nbytes)
        return result

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        return self.call(name, fn, args, kwargs)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrapper(self, name, original):
        if isinstance(original, classmethod):
            func = original.__func__

            def bound(cls, *args, **kwargs):
                return self.call(name, func, (cls,) + args, kwargs)

            return classmethod(bound)

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        return wrapper

    def install(self, probes=PROBES):
        for owner_spec, attribute, name in probes:
            owner = resolve_owner(owner_spec)
            original = vars(owner).get(attribute)
            if original is None:
                self.missing.append(f"{owner_spec}.{attribute}")
                continue
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._wrapper(name, original))
        return self

    def uninstall(self):
        """Restore every probed attribute; raise if one is not restored."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
            if vars(owner).get(attribute) is not original:
                raise RuntimeError(f"probe on {owner!r}.{attribute} was not restored")

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self):
        """{span name: (calls, total_s, self_s)} over all call paths."""
        out = {}
        for path, (calls, total, children) in self.paths.items():
            c, t, s = out.get(path[-1], (0, 0.0, 0.0))
            out[path[-1]] = (c + calls, t + total, s + total - children)
        return out

    def layer_time(self, layer):
        """Time inside spans of one layer (the span-name prefix before the
        first dot), counting a span nested in another of the layer once."""
        total = 0.0
        for path, (_, elapsed, _) in self.paths.items():
            layers = [name.split(".")[0] for name in path]
            if layers[-1] == layer and layer not in layers[:-1]:
                total += elapsed
        return total

    def self_time_residual(self, root):
        """Root duration minus the summed self times of every path under it."""
        root_total = self.paths[(root,)][1]
        self_sum = sum(
            total - children
            for path, (_, total, children) in self.paths.items()
            if path[0] == root
        )
        return root_total - self_sum
