"""Spans around calls into edcred's public functions, kept in memory.

Nothing under src/ knows about this module. It replaces module attributes
and class attributes with timing wrappers, at the place each function is
looked up: edcred modules bind their collaborators with ``from ... import``,
so e.g. ``edcred.protocol.user_blind`` is wrapped, not only
``edcred.issuance.user_blind``. ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, op, role, value]``. ``parent`` is the
index of the enclosing span in the same thread's list (-1 at top level),
``op`` the operation id set with ``begin``, ``role`` the party doing the
work (holder, issuer, verifier), and ``value`` a per-span figure some
wrappers record (bytes framed, statements proven, a verify result).
Each thread appends to its own list, so parent indices need no lock.
"""

from __future__ import annotations

import threading
import time

clock = time.perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "role", "value")


class Tracer:
    def __init__(self, fixed_points=()):
        # (x, y) of the long-lived bases P and Ppub: k*Q on one of these is
        # a fixed-base multiplication, on any other point variable-base
        self.fixed = set(fixed_points)
        self.threads = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "spans"):
            st.spans, st.stack, st.op, st.role = [], [], None, None
            with self._lock:
                self.threads.append(st.spans)
        return st

    def begin(self, op, role=None) -> None:
        """Attribute the calling thread's next spans to operation ``op``."""
        st = self._state()
        st.op, st.role = op, role

    def role(self, role) -> None:
        self._state().role = role

    def add_span(self, name, start, end, value=None) -> None:
        st = self._state()
        st.spans.append([name, start, end, st.stack[-1] if st.stack else -1, st.op, st.role, value])

    def spans(self):
        """Every span of every thread, with parents as (thread, index)."""
        for t, spans in enumerate(self.threads):
            for rec in spans:
                yield t, rec

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name, value=None):
        """``fn`` inside a span; ``value(args, result)`` fills the span's value."""
        state = self._state

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, st.op, st.role, None]
            stack.append(len(st.spans))
            st.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if value is not None:
                rec[6] = value(args, result)
            return result

        return traced

    def wrap_mul(self, fn):
        """Point.__rmul__, split into fixed-base and variable-base spans."""
        fixed = self.fixed
        fixed_span = self.wrap(fn, "curve.mul_fixed")
        var_span = self.wrap(fn, "curve.mul_var")

        def traced(point, k):
            if (point.x, point.y) in fixed:
                return fixed_span(point, k)
            return var_span(point, k)

        return traced

    def patch(self, owner, attr, name, value=None) -> None:
        self.replace(owner, attr, lambda fn: self.wrap(fn, name, value))

    def replace(self, owner, attr, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _statements(args, result):
    return len(args[0])


def _one(args, result):
    return 1


def _nbytes(args, result):
    return len(result)


def _verdict(args, result):
    return bool(result)


def instrument(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary of the edcred package."""
    from edcred import cli, credential, curve, disclosure, hashing, issuance, params
    from edcred import protocol, schnorr, wire

    patch = tracer.patch
    point = curve.Point

    # curve: multiplications split by base, additions, decoding
    tracer.replace(point, "__rmul__", tracer.wrap_mul)
    patch(point, "__add__", "curve.add")
    patch(point, "decode", "curve.decode")

    # params: ladders and file loads
    patch(point, "precompute", "params.precompute")
    patch(params.SystemParams, "load", "params.load")
    patch(params.IssuerKey, "load", "params.load")

    # hashing: hash_block is a container span, the leaves are counted
    patch(hashing, "hash_points", "hashing.hash_points")
    patch(disclosure, "hash_points", "hashing.hash_points")
    patch(issuance, "hash_block", "hashing.hash_block")
    patch(schnorr, "challenge_scalar", "hashing.challenge")
    patch(cli, "attr_to_scalar", "hashing.attr")

    # schnorr, at each module that calls it
    for mod in (issuance, credential):
        patch(mod, "fs_prove", "schnorr.prove", _one)
        patch(mod, "fs_verify", "schnorr.verify", _one)
    patch(issuance, "pk_commit", "schnorr.prove", _one)
    patch(issuance, "pk_respond", "schnorr.prove")
    patch(issuance, "pk_verify", "schnorr.verify", _one)
    patch(disclosure, "fs_prove_batch", "schnorr.prove", _statements)
    patch(disclosure, "fs_verify_batch", "schnorr.verify", _statements)

    # issuance steps, as the protocol engines call them
    patch(protocol, "issuer_start", "issuance.issuer_start")
    patch(protocol, "user_blind", "issuance.user_blind")
    patch(protocol, "user_pk_respond", "issuance.user_pk_respond")
    patch(protocol, "user_unblind", "issuance.user_unblind")
    patch(issuance.IssuerSession, "sign", "issuance.sign")
    patch(issuance.IssuerSession, "issue_challenge", "issuance.issue_challenge")

    # credential and disclosure entry points: the module attribute is the
    # benchmark's own use site, the cli module the command line's
    patch(credential, "check_equation", "credential.check_equation")
    for mod in (credential, cli):
        patch(mod, "make_presentation", "credential.make_presentation")
        patch(mod, "verify_presentation", "credential.verify_presentation")
    patch(disclosure, "present", "disclosure.present")
    patch(cli, "build_disclosure", "disclosure.present")
    for mod in (disclosure, cli):
        patch(mod, "verify_disclosure", "disclosure.verify", _verdict)

    # protocol engines and the functions that run them; socket reads and writes are io
    patch(protocol.IssuerEngine, "open", "protocol.issuer")
    patch(protocol.IssuerEngine, "handle", "protocol.issuer")
    patch(protocol.UserEngine, "handle", "protocol.user")
    patch(protocol, "serve_issuance", "protocol.serve")
    patch(protocol, "request_issuance", "protocol.request")
    patch(cli, "run_issuance", "protocol.run")
    patch(protocol, "read_message", "io.read")
    patch(protocol, "write_message", "io.write")

    # wire: message framing and token encodings
    for mod in (wire, cli):
        patch(mod, "encode_message", "wire.encode_message", _nbytes)
        patch(mod, "decode_message", "wire.decode_message")
    for cls in (credential.PresentationToken, disclosure.DisclosureToken, issuance.Credential):
        patch(cls, "to_bytes", "wire.token")
        patch(cls, "from_bytes", "wire.token")
    return tracer


# -- per-layer summary -------------------------------------------------------

LAYERS = ("curve", "hashing", "schnorr", "issuance", "credential", "disclosure",
          "protocol", "wire", "io", "params", "cli")
CLI_STEPS = ("issue", "randomize", "present", "verify")


def layer_metrics(tracer: Tracer, ops: dict, params_ops) -> dict:
    """Per-operation figures for every layer, over the spans of ``ops``.

    ``ops`` maps op id to its Op record (for the exact inner-step counts);
    ``params_ops`` names the ops whose spans give the params.* figures,
    which are per set-up: the traced in-process set-up, or, on the command
    line, every command. Times are ms per operation, a layer's self time is
    its spans' time minus that of the spans they enclose.
    """
    n = len(ops)
    count, total, value = {}, {}, {}
    layer_self, layer_outer = dict.fromkeys(LAYERS, 0.0), dict.fromkeys(LAYERS, 0.0)
    params_total = {}
    # a thread handing over the interpreter lock stays inside its socket
    # call until it gets the lock back, so the user's wait is all its
    # socket time, reads and writes, less the issuer's engine time
    user_io, engine = {}, {}

    def add(d, key, x):
        d[key] = d.get(key, 0) + x

    for spans in tracer.threads:
        enclosed = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                enclosed[parent] += t1 - t0
        for i, (name, t0, t1, parent, op, role, val) in enumerate(spans):
            dur = t1 - t0
            layer = name.split(".", 1)[0]
            if layer == "params" and op in params_ops:
                add(params_total, name, dur)
            if op not in ops or role == "tamper":
                continue
            add(count, name, 1)
            add(total, name, dur)
            add(total, (name, role), dur)
            if val is not None:
                add(value, name, val)
                add(total, (name, val), dur)
            layer_self[layer] += dur - enclosed[i]
            if parent < 0 or not spans[parent][0].startswith(layer + "."):
                layer_outer[layer] += dur
            if layer == "io" and role == "holder":
                add(user_io, op, dur)
            elif name == "protocol.issuer":
                add(engine, op, dur)

    def per_op(x):
        return x / n if n else 0.0

    def ms(key):
        return per_op(1000 * total.get(key, 0.0))

    def mean_ms(name):
        return 1000 * total.get(name, 0.0) / count[name] if count.get(name) else 0.0

    m = {}
    for k in ("mul_fixed", "mul_var", "add", "decode"):
        m[f"curve.{k}.calls"] = per_op(count.get(f"curve.{k}", 0))
        m[f"curve.{k}.ms"] = ms(f"curve.{k}")
    for k in ("mul_fixed", "mul_var"):
        for role in ("holder", "issuer", "verifier"):
            m[f"curve.{k}.{role}.ms"] = ms((f"curve.{k}", role))
    m["curve.inner_steps"] = per_op(sum(op.measured[2] for op in ops.values() if op.measured))
    m["hashing.calls"] = per_op(sum(count.get(k, 0) for k in
                                    ("hashing.hash_points", "hashing.challenge", "hashing.attr")))
    m["hashing.ms"] = per_op(1000 * layer_outer["hashing"])
    m["schnorr.prove.ms"] = ms("schnorr.prove")
    m["schnorr.verify.ms"] = ms("schnorr.verify")
    m["schnorr.statements"] = per_op(value.get("schnorr.prove", 0) + value.get("schnorr.verify", 0))
    for k in ("issuer_start", "user_blind", "sign", "user_unblind"):
        m[f"issuance.{k}.ms"] = ms(f"issuance.{k}")
    for k in ("make_presentation", "verify_presentation", "check_equation"):
        m[f"credential.{k}.ms"] = ms(f"credential.{k}")
    m["disclosure.present.ms"] = ms("disclosure.present")
    m["disclosure.verify.ms"] = ms(("disclosure.verify", True))
    m["disclosure.reject.ms"] = ms(("disclosure.verify", False))
    m["protocol.wait.ms"] = per_op(1000 * sum(max(0.0, w - engine.get(op, 0.0))
                                              for op, w in user_io.items()))
    m["wire.messages"] = per_op(count.get("wire.encode_message", 0))
    m["wire.bytes"] = per_op(value.get("wire.encode_message", 0))
    m["wire.ms"] = per_op(1000 * layer_outer["wire"])
    setups = max(1, len(params_ops))
    m["params.precompute.ms"] = 1000 * params_total.get("params.precompute", 0.0) / setups
    m["params.load.ms"] = 1000 * params_total.get("params.load", 0.0) / setups
    m["cli.import.ms"] = mean_ms("cli.import")
    for k in CLI_STEPS:
        m[f"cli.{k}.ms"] = mean_ms(f"cli.{k}")
    for layer in LAYERS:
        m[f"{layer}.self.ms"] = per_op(1000 * layer_self[layer])
    m["trace.spans"] = per_op(sum(count.values()))
    return m
