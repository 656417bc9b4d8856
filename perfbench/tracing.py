"""Span tracing from outside the program.

The traced pass replaces public names of storerank's modules with thin
wrappers that record a span per call: name, start, end and parent.  A
span is recorded only when its name is listed for the phase that is
running; any other call runs untimed inside its caller, so its time
lands in the caller's self time.  A phase's root span is opened by the
benchmark around the library call that defines the phase, and its self
time is the phase's untraced remainder.  Self times of one phase
therefore add up to the phase's wall time.

Wrapping targets the names as their callers look them up: ``model``
imports ``efficient_attention`` and the metrics by name, so those are
patched in ``storerank.model``; ``tokenizer`` and ``model`` reach the
autodiff engine through the ``storerank.tensor`` module, so ``grad`` is
patched there.  A name that no longer exists is reported as absent.
"""

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext

import numpy as np

# (module path, class or None, attribute, span name): the span name
# is "<module the code lives in>.<function>", which is what the metric
# names use, whatever namespace the wrapper is installed in.
TARGETS = [
    ("storerank.data", None, "gen_synthetic", "data.gen_synthetic"),
    ("storerank.data", None, "random_split", "data.random_split"),
    ("storerank.data", None, "encode_features", "data.encode_features"),
    ("storerank.tokenizer", None, "nearest_codewords", "tokenizer.nearest_codewords"),
    ("storerank.tokenizer", None, "orth_penalty", "tokenizer.orth_penalty"),
    ("storerank.tensor", None, "grad", "tensor.grad"),
    ("storerank.tensor", "Adam", "step", "tensor.adam_step"),
    ("storerank.tensor", None, "embedding", "tensor.embedding"),
    ("storerank.model", None, "prepare_inputs", "model.prepare_inputs"),
    ("storerank.model", "StoreModel", "static_block", "model.static_block"),
    ("storerank.model", "StoreModel", "build_tokens", "model.build_tokens"),
    ("storerank.model", None, "bce_loss", "model.bce_loss"),
    ("storerank.model", None, "predict", "model.predict"),
    ("storerank.model", None, "efficient_attention", "attention.efficient_attention"),
    ("storerank.attention", None, "moba_route", "attention.moba_route"),
    ("storerank.attention", None, "plan_to_mask", "attention.plan_to_mask"),
    ("storerank.model", None, "diversity_penalty", "rotation.diversity_penalty"),
    ("storerank.model", None, "rotation_step", "rotation.rotation_step"),
    ("storerank.model", None, "auc", "metrics.auc"),
    ("storerank.model", None, "gauc", "metrics.gauc"),
    ("storerank.model", None, "logloss", "metrics.logloss"),
]

# phase -> (root span name, child span names recorded in that phase)
PHASES = {
    "setup": ("perfbench.setup", ["data.gen_synthetic", "data.encode_features"]),
    "opmq": ("tokenizer.train_opmq",
             ["tokenizer.nearest_codewords", "tokenizer.orth_penalty",
              "tensor.grad", "tensor.adam_step"]),
    "tok": ("tokenizer.tokenize_catalog", ["tokenizer.nearest_codewords"]),
    "save": ("model.save_store", []),
    "load": ("model.load_store", []),
    "fit": ("model.fit",
            ["model.prepare_inputs", "model.static_block", "model.build_tokens",
             "model.bce_loss", "attention.efficient_attention",
             "attention.moba_route", "attention.plan_to_mask",
             "rotation.diversity_penalty", "rotation.rotation_step",
             "tensor.grad", "tensor.adam_step"]),
    "eval": ("model.evaluate",
             ["model.prepare_inputs", "model.static_block", "model.build_tokens",
              "model.predict", "attention.efficient_attention",
              "attention.moba_route", "attention.plan_to_mask",
              "metrics.auc", "metrics.gauc", "metrics.logloss"]),
}


def self_time_names():
    """Every ``<phase>.<module>.<function>.self_s`` metric, root first."""
    return [f"{phase}.{name}.self_s"
            for phase, (root, children) in PHASES.items()
            for name in [root] + children]


class Tracer:
    """In-memory span recorder; spans are (id, parent, phase, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = None
        self.allowed = ()

    @contextmanager
    def in_phase(self, phase):
        root, children = PHASES[phase]
        self.phase, self.allowed = phase, children
        try:
            with self.span(root):
                yield
        finally:
            self.phase, self.allowed = None, ()

    @contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        rec = {"id": sid, "parent": parent, "phase": self.phase, "name": name,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def self_times(self):
        """{(phase, name): summed self seconds} and {phase: wall seconds}."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out, wall = {}, {}
        for s in self.spans:
            key = (s["phase"], s["name"])
            dur = s["end"] - s["start"]
            out[key] = out.get(key, 0.0) + dur - child[s["id"]]
            if s["parent"] is None:
                wall[s["phase"]] = wall.get(s["phase"], 0.0) + dur
        return out, wall


class Patches:
    """Installs wrappers on the public names in ``TARGETS`` and restores
    the originals on exit.  ``probes`` maps a span name to a function
    called with the call's arguments before the span opens, so the
    counting it does is charged to the caller, not to the layer."""

    def __init__(self, tracer, probes=None):
        self.tracer = tracer
        self.probes = probes or {}
        self.saved = []
        self.absent = []

    def __enter__(self):
        for module_path, cls, attr, name in TARGETS:
            owner = importlib.import_module(module_path)
            if cls is not None:
                owner = getattr(owner, cls, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            self.saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()

    def _wrap(self, fn, name):
        tracer = self.tracer
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None and tracer.phase is not None:
                probe(tracer.phase, args)
            if name not in tracer.allowed:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper


class Counters:
    """Work counted at layer boundaries in the traced set-up and pass.

    ``tensor.embedding`` is wrapped only to learn which parameters are
    embedding tables; it never gets a span of its own.
    """

    def __init__(self):
        self.tables = set()
        self.adam_entries = 0
        self.touched_rows = 0
        self.table_rows = 0
        self.gauc_groups = 0

    def probes(self):
        return {"tensor.embedding": self._embedding,
                "tensor.adam_step": self._adam_step,
                "metrics.gauc": self._gauc}

    def _embedding(self, phase, args):
        if phase == "fit":
            self.tables.add(id(args[0]))

    def _adam_step(self, phase, args):
        if phase != "fit":
            return
        opt, grads = args[0], args[1]
        for p, g in zip(opt.params, grads):
            self.adam_entries += p.values.size
            if id(p) in self.tables and isinstance(g, np.ndarray) and g.ndim == 2:
                self.touched_rows += int(np.count_nonzero(g.any(axis=1)))
                self.table_rows += g.shape[0]

    def _gauc(self, phase, args):
        if phase == "eval":
            self.gauc_groups = int(np.unique(args[2]).size)


class PhaseClock:
    """Wall seconds per phase of one set-up or pass; with a tracer, each
    phase also opens its root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = {}

    @contextmanager
    def phase(self, name):
        t0 = time.perf_counter()
        try:
            with self.tracer.in_phase(name) if self.tracer else nullcontext():
                yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0
