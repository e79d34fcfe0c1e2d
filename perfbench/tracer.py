"""Spans and counts around eccipher's public functions, installed from outside.

The benchmark does not change the package.  `installed` replaces each
wrapped function, method or property on its module or class, and also
every other binding of the same object inside the `eccipher` package (for
example `keyfile.keypair_from_secret`, `cipher.encrypt_point` as seen by
`encrypt_message`, and the re-exports in `eccipher/__init__`).  A name that
no longer exists makes `installed` raise, so a rename cannot silently empty
a layer.

A span is (id, parent, op, name, start, end).  `op` is the id of the
message, command or break the span belongs to (0 for set-up).  Spans are
kept in compact arrays and written out once at the end.  Self time is a
span's duration minus the time its direct child spans cover; it is summed
per span name while the trace runs.

Hot, tiny calls (FieldElement construction, Curve and Point equality,
Point hashing) are counted, not spanned.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (module, owner, attribute, kind, span or counter name).  The owner is a
# class name inside the module, or None for a module-level function.
#   span    a span per call
#   count   a count per call, no span
#   add     Point.__add__: span "curve.double" when both operands are the
#           same point, else "curve.add"
#   parse   span plus the UTF-8 size of the parsed text
#   encrypt span plus rng draws and drawn-nonce symbols
HOOKS = (
    ("field", "FieldElement", "__init__", "count", "field.elements"),
    ("field", "FieldElement", "sqrt", "span", "field.sqrt"),
    ("curve", "Point", "__add__", "add", "curve.add"),
    ("curve", "Point", "__rmul__", "span", "curve.scalar_mul"),
    ("curve", "Point", "__hash__", "count", "curve.point_hash"),
    ("curve", "Point", "__eq__", "count", "curve.point_eq"),
    ("curve", "Curve", "__eq__", "count", "curve.curve_eq"),
    ("curve", "Curve", "enumerate_points", "span", "curve.enumerate"),
    ("curve", "Curve", "order_of", "span", "curve.order_of"),
    ("codec", "CodeTable", "from_generator", "span", "codec.table_build"),
    ("codec", "CodeTable", "encode_symbol", "span", "codec.lookup"),
    ("codec", "CodeTable", "decode_point", "span", "codec.lookup"),
    ("codec", "CodeTable", "encode_message", "span", "codec.lookup"),
    ("codec", "CodeTable", "decode_message", "span", "codec.lookup"),
    ("keys", None, "keygen", "span", "keys.keygen"),
    ("keys", None, "keypair_from_secret", "span", "keys.keypair"),
    ("keys", None, "derive_specific", "span", "keys.derive"),
    ("keys", "PrivateKey", "base_order", "span", "keys.base_order"),
    ("cipher", None, "encrypt_point", "span", "cipher.encrypt_point"),
    ("cipher", None, "decrypt_point", "span", "cipher.decrypt_point"),
    ("cipher", None, "encrypt_message", "encrypt", "cipher.encrypt"),
    ("cipher", None, "decrypt_message", "span", "cipher.decrypt"),
    ("keyfile", None, "parse_curve_setup", "parse", "keyfile.parse"),
    ("keyfile", None, "parse_private_key", "parse", "keyfile.parse"),
    ("keyfile", None, "parse_general_public_key", "parse", "keyfile.parse"),
    ("keyfile", None, "parse_specific_public_key", "parse", "keyfile.parse"),
    ("keyfile", None, "render_curve_setup", "span", "keyfile.render"),
    ("keyfile", None, "render_private_key", "span", "keyfile.render"),
    ("keyfile", None, "render_general_public_key", "span", "keyfile.render"),
    ("keyfile", None, "render_specific_public_key", "span", "keyfile.render"),
    ("cli", None, "main", "span", "cli.main"),
    ("reference", None, "ecdlp_bsgs", "span", "reference.bsgs"),
    ("reference", None, "ecdlp_exhaustive", "span", "reference.exhaustive"),
    ("reference", None, "slow_scalar_mul", "span", "reference.slow_mul"),
)


class Tracer:
    """Collects spans and counts in memory for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {}
        # One entry per span, by span id.
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []   # [span id, time covered by children]
        self.op = 0
        self.active = False
        self.origin = perf_counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._name_ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def paused(self):
        """Run untraced code (output oracles) inside a traced pass."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def call(self, nid: int, fn, args, kwargs):
        stack = self.stack
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        stack.append(frame)
        start = perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.span_end[sid] = end
            duration = end - start
            self.calls[nid] += 1
            self.self_s[nid] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def summary(self) -> dict:
        """Calls and self time per span name, plus the plain counts."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": dict(self.counts),
            "spans": len(self.span_start),
        }

    def write_spans(self, path) -> None:
        """Write every span as a gzipped TSV row; times in s from tracer start."""
        origin = self.origin
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            rows = zip(self.span_parent, self.span_op, self.span_name,
                       self.span_start, self.span_end)
            for sid, (parent, op, nid, start, end) in enumerate(rows):
                out.write(f"{sid}\t{parent}\t{op}\t{names[nid]}\t"
                          f"{start - origin:.9f}\t{end - origin:.9f}\n")


def merge(total: dict, part: dict) -> dict:
    """Add one summary (for example a child process's) into another."""
    for key in ("calls", "self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    total["spans"] = total.get("spans", 0) + part["spans"]
    return total


class _CountingRng:
    """Forwards to a random.Random and counts every method call as one draw."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._tracer.count("cipher.nonce_draws")
            return attr(*args, **kwargs)
        return counted


def _wrap(tracer: Tracer, fn, kind: str, name: str):
    if kind == "count":
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    nid = tracer.name_id(name)
    if kind == "span":
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(nid, fn, args, kwargs)
    elif kind == "add":
        double_id = tracer.name_id("curve.double")

        def wrapper(a, b):
            if not tracer.active:
                return fn(a, b)
            with tracer.paused():   # the equality test is the tracer's, not the program's
                same = a is b or (type(b) is type(a) and a == b)
            return tracer.call(double_id if same else nid, fn, (a, b), {})
    elif kind == "parse":
        def wrapper(text, *args, **kwargs):
            if not tracer.active:
                return fn(text, *args, **kwargs)
            tracer.count("keyfile.bytes_parsed", len(text.encode("utf-8")))
            return tracer.call(nid, fn, (text,) + args, kwargs)
    elif kind == "encrypt":
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            arguments = bound.arguments
            if arguments.get("rng") is not None and arguments.get("nonces") is None:
                tracer.count("cipher.rng_symbols", len(arguments["message"]))
                arguments["rng"] = _CountingRng(arguments["rng"], tracer)
            return tracer.call(nid, fn, bound.args, bound.kwargs)
    else:
        raise ValueError(f"unknown hook kind {kind!r}")
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    import importlib

    for module_name in {hook[0] for hook in HOOKS}:
        importlib.import_module(f"eccipher.{module_name}")
    modules = [mod for key, mod in sys.modules.items()
               if mod is not None and (key == "eccipher" or key.startswith("eccipher."))]
    undo = []
    try:
        for module_name, owner, attr, kind, name in HOOKS:
            module = sys.modules[f"eccipher.{module_name}"]
            if owner is None:
                original = getattr(module, attr)
                wrapped = _wrap(tracer, original, kind, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, original))
                continue
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, kind, name))
            elif isinstance(raw, property):
                wrapped = property(_wrap(tracer, raw.fget, kind, name))
            else:
                wrapped = _wrap(tracer, raw, kind, name)
            setattr(cls, attr, wrapped)
            undo.append((cls, attr, raw))
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for target, key, original in reversed(undo):
            setattr(target, key, original)


def dump_child(tracer: Tracer, prefix: str) -> None:
    """Write a child process's summary (`prefix`.json) and spans (`prefix`.tsv.gz)."""
    tracer.write_spans(prefix + ".tsv.gz")
    with open(prefix + ".json", "w", encoding="utf-8") as out:
        json.dump(tracer.summary(), out)
