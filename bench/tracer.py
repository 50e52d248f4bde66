"""Span tracer for the zzcompile layers, installed at run time from outside the package.

`install` wraps every public function of each layer module, every binding of
it that another module made with ``from .x import f`` (and the package's
re-exports), and the public methods of the module's classes; `uninstall`
puts the originals back.  Nothing under ``src/`` is edited.  A span records
its name, layer, start, end and parent; a few spans also carry sizes read
from the call's arguments or result (matmuls in ``compose``, instructions
handed to ``apply_sequence``, bytes of CSV text, deviations of compiles).
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from types import FunctionType

LAYERS = ("cli", "molecule", "paulis", "sequence", "decompose", "refocus",
          "simulate", "spectra")

# The one private function wrapped: the CLI's atomic file write, so that the
# bytes a command writes are counted where they are written.
PRIVATE = {"cli": ("_write_atomic",)}

COMPILES = ("decompose.compile_four_body", "decompose.decompose_chain")


def _rotations(seq) -> int:
    return sum(type(i).__name__ == "Rotation" for i in seq.instructions)


# Sizes read at the boundary: name -> f(args, kwargs, result) -> info dict.
PROBES = {
    "paulis.compose": lambda a, kw, r: {"matmuls": len(a[0]) - 1, "dim": r.shape[0]},
    "decompose.compile_four_body": lambda a, kw, r: {"deviation": r.deviation},
    "decompose.decompose_chain": lambda a, kw, r: {"deviation": r.deviation},
    "refocus.refocus_block": lambda a, kw, r: {"pulses": _rotations(r)},
    "simulate.apply_sequence":
        lambda a, kw, r: {"instructions": len(a[1] if len(a) > 1 else kw["seq"])},
    "spectra.Spectrum.to_csv": lambda a, kw, r: {"bytes": len(r)},
    "spectra.Fid.to_csv": lambda a, kw, r: {"bytes": len(r)},
    "cli._write_atomic": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
}


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "info")

    def __init__(self, sid, parent, name, layer):
        self.id, self.parent, self.name, self.layer = sid, parent, name, layer
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self, op: int, origin: float) -> dict:
        return {"op": op, "id": self.id, "parent": self.parent, "name": self.name,
                "layer": self.layer, "start": self.start - origin,
                "end": self.end - origin}


class Tracer:
    """Collects the spans of one op at a time; callers read `spans` after `uninstall`."""

    def __init__(self, package: str = "zzcompile"):
        self.spans: list = []
        self._stack: list = []
        self._patches = self._plan(package)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None, name, layer)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return traced

    def _plan(self, package: str) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        by_id = {}       # id(original function) -> wrapper
        patches = []
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__ and public:
                    by_id[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    patches.extend(self._class_patches(layer, obj))
        namespaces = [importlib.import_module(package)] + list(modules.values())
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                if id(obj) in by_id:
                    patches.append((ns, attr, obj, by_id[id(obj)]))
        return patches

    def _class_patches(self, layer: str, cls) -> list:
        out = []
        for attr, obj in vars(cls).items():
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, FunctionType):
                out.append((cls, attr, obj, self._wrap(layer, name, obj)))
            elif isinstance(obj, (classmethod, staticmethod)):
                out.append((cls, attr, obj, type(obj)(self._wrap(layer, name, obj.__func__))))
        return out

    def install(self):
        self.spans.clear()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @property
    def wrapped(self) -> int:
        return len(self._patches)


def _ancestors(spans, span):
    """Spans enclosing `span`, innermost first (a span's id is its index)."""
    while span.parent is not None:
        span = spans[span.parent]
        yield span


def _outermost(spans, names) -> float:
    """Inclusive time of spans named in `names`, not counting ones nested in each other."""
    return sum(s.duration for s in spans if s.name in names
               and not any(a.name in names for a in _ancestors(spans, s)))


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 where the op did none of the work in the denominator."""
    return num / den if den else 0.0


def op_metrics(spans) -> dict:
    """Per-layer numbers of one traced op."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    calls = {}
    info = {}
    for s in spans:
        out[f"{s.layer}.self_s"] += s.duration - child[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.info:
            bucket = info.setdefault(s.name, {})
            for key, value in s.info.items():
                bucket[key] = bucket.get(key, 0) + value

    def count(name, key=None):
        return calls.get(name, 0) if key is None else info.get(name, {}).get(key, 0)

    compose_dims = [(s.info["matmuls"], s.info["dim"]) for s in spans
                    if s.name == "paulis.compose"]
    gflop = sum(k * 8 * d ** 3 for k, d in compose_dims) / 1e9
    compiles = sum(count(n) for n in COMPILES)
    points = count("simulate.evolve_four_body")
    point_compiles = sum(1 for s in spans if s.name in COMPILES
                         and any(a.layer == "simulate" for a in _ancestors(spans, s)))
    csv_bytes = count("spectra.Spectrum.to_csv", "bytes") + count("spectra.Fid.to_csv", "bytes")
    to_csv_s = _outermost(spans, {"spectra.Spectrum.to_csv", "spectra.Fid.to_csv"})
    blocks = count("refocus.refocus_block")
    out.update({
        "cli.bytes_written": count("cli._write_atomic", "bytes"),
        "molecule.hamiltonian_calls": count("molecule.hamiltonian"),
        "paulis.pauli_exponential_calls": count("paulis.pauli_exponential"),
        "paulis.compose_matmuls": sum(k for k, _ in compose_dims),
        "paulis.compose_gflop": gflop,
        "paulis.compose_gflop_per_s": _ratio(gflop, _outermost(spans, {"paulis.compose"})),
        "sequence.instruction_propagator_calls": count("sequence.instruction_propagator"),
        "sequence.sequence_propagator_s": _outermost(spans, {"sequence.sequence_propagator"}),
        "decompose.compile_s": _outermost(spans, set(COMPILES)),
        "decompose.verify_s": _outermost(spans, {"decompose.verify_decomposition"}),
        "decompose.phase_checks_per_compile":
            _ratio(count("paulis.equal_up_to_global_phase"), compiles),
        "refocus.blocks": blocks,
        "refocus.pulses_per_block": _ratio(count("refocus.refocus_block", "pulses"), blocks),
        "simulate.apply_sequence_s": _outermost(spans, {"simulate.apply_sequence"}),
        "simulate.instructions_applied": count("simulate.apply_sequence", "instructions"),
        "simulate.compiles_per_point": _ratio(point_compiles, points),
        "simulate.prepares_per_point": _ratio(count("simulate.prepare_initial_state"), points),
        "spectra.synthesize_fid_s": _outermost(spans, {"spectra.synthesize_fid"}),
        "spectra.fft_s": _outermost(spans, {"spectra.fid_to_spectrum"}),
        "spectra.to_csv_s": to_csv_s,
        "spectra.csv_mb_per_s": _ratio(csv_bytes / 1e6, to_csv_s),
        "spectra.fit_s": _outermost(spans, {"spectra.fit_cosine"}),
    })
    deviations = [s.info["deviation"] for s in spans if s.name in COMPILES]
    out["decompose.max_deviation"] = max(deviations, default=0.0)
    return out


def median_metrics(per_op: list) -> dict:
    """Per-op medians, except max_deviation, which is the maximum over all ops."""
    out = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    out["decompose.max_deviation"] = max(m["decompose.max_deviation"] for m in per_op)
    return out
