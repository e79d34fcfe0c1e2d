"""The benchmark's three workloads.

Each is a closed loop with one caller: the next operation starts only when
the previous one has finished.  A workload has

    setup(tally)            the state its operations need (timed by the runner)
    ops()                   an endless, seeded stream of operation inputs
    run_op(state, op, tally) one timed operation; its output is checked
                            right after, outside the timed region
    finish(state, tally)    output oracles run once per pass, untimed

Calls into eccipher go through module attributes (`cipher.encrypt_message`,
not a name imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from time import perf_counter

from eccipher import cipher, codec, keys, reference
from eccipher import curve as curves

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Print at most this many failure tracebacks per pass; every failure is counted.
MAX_REPORTED_FAILURES = 5

# A CLI command that takes longer is killed and counted as failed.
COMMAND_TIMEOUT_S = 60


@dataclass
class Tally:
    """What one pass attempted, what failed, and its timed samples."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0                                # all timed seconds
    op_s: list[float] = field(default_factory=list)    # latency of each successful operation
    op_busy_s: list[float] = field(default_factory=list)  # timed seconds since the previous one
    op_end: list[float] = field(default_factory=list)  # perf_counter() when each was recorded
    extra: dict[str, float] = field(default_factory=dict)
    _recorded_busy_s: float = 0.0

    def record(self, seconds: float) -> None:
        """One successful operation; its time is already in busy_s."""
        self.op_s.append(seconds)
        self.op_busy_s.append(self.busy_s - self._recorded_busy_s)
        self.op_end.append(perf_counter())
        self._recorded_busy_s = self.busy_s

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {what}: {detail or traceback.format_exc()}", file=sys.stderr)


def child_env() -> dict:
    """Environment for child interpreters: the package by absolute path.

    A relative PYTHONPATH would resolve against each child's working
    directory and find nothing.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUTF8"] = "1"
    return env


def stratified_lengths(rng: random.Random, low: int, high: int, bands: int):
    """Endless message lengths in [low, high].

    Each block of `bands` lengths takes one from each equal-width band, in
    shuffled order, so every prefix of the stream spreads its lengths
    evenly and runs on different seeds see the same length mix.
    """
    width = (high - low + 1) / bands
    edges = [low + round(i * width) for i in range(bands + 1)]
    order = list(range(bands))
    while True:
        rng.shuffle(order)
        for band in order:
            yield rng.randint(edges[band], edges[band + 1] - 1)


class Workload:
    name = ""
    op_label = ""            # what one operation is, for the report
    setup_repeats = 1        # set-ups per untraced run; setup_s is their median
    trace_ops = 1            # operations in each pass of a traced run
    rss_of_children = False  # peak RSS is the children's, not this process's
    aliases: dict[str, str] = {}   # what a generic metric is called on this workload

    def __init__(self, seed: int, workdir: Path, tracer=None, trace_dir: Path | None = None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.trace_dir = trace_dir

    def mark(self, op_id: int) -> None:
        """Tag the spans that follow with this operation's id."""
        if self.tracer is not None:
            self.tracer.op = op_id

    def untimed(self):
        """Context for oracle code, which must not be traced."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def setup(self, tally: Tally):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def run_op(self, state, op, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, state, tally: Tally) -> None:
        pass

    def report(self, tally: Tally) -> list[tuple[str, float, str, str]]:
        """Workload-specific report lines: (name, value, unit, detail)."""
        return []


# ------------------------------------------------------------ demo-traffic

DEMO_CURVE = (37, 2, 9)
DEMO_BASE = (9, 4)
DEMO_TABLE_POINT = (5, 25)
DEMO_SECRETS = ((5, (10, 20)), (7, (11, 20)))   # Alice, Bob
DEMO_VECTOR = ("attack", [8, 12, 19, 2, 3, 23], "b5cl#jvb7p@f")
SEEDED_PARTIES = 16
MESSAGES_PER_CONVERSATION = (16, 32)
ORACLE_SHARE = 1 / 32   # share of messages whose cipher pair the slow oracles recheck


@dataclass
class DemoState:
    base: object
    order: int
    table: object
    parties: list        # (PrivateKey, GeneralPublicKey); 0 = Alice, 1 = Bob
    specific: dict       # (issuer, audience) -> SpecificPublicKey
    samples: list = field(default_factory=list)


class DemoTraffic(Workload):
    """Library calls on the paper's demo setup, many messages per context."""

    name = "demo-traffic"
    op_label = "message round trip (encrypt + decrypt)"
    setup_repeats = 25
    trace_ops = 8   # conversations

    def setup(self, tally):
        curve = curves.Curve(*DEMO_CURVE)
        curve.enumerate_points()
        base = curve.point(*DEMO_BASE)
        table = codec.CodeTable.from_generator(curve, curve.point(*DEMO_TABLE_POINT))
        parties = [keys.keypair_from_secret(curve, base, alpha, curve.point(*point))
                   for alpha, point in DEMO_SECRETS]
        rng = random.Random(f"{self.seed}/parties")
        parties += [keys.keygen(curve, base, rng) for _ in range(SEEDED_PARTIES)]
        specific = {
            (i, j): keys.derive_specific(parties[i][0], parties[j][1].k2, f"p{i}", f"p{j}")
            for i in range(len(parties)) for j in range(len(parties)) if i != j
        }
        return DemoState(base, curve.order_of(base), table, parties, specific)

    def ops(self):
        """Conversations: (sender, recipient, [(id, text, nonce seed, oracle position)])."""
        rng = random.Random(f"{self.seed}/traffic")
        lengths = stratified_lengths(rng, 1, 42, 6)
        alphabet = codec.DEFAULT_ALPHABET
        message_id = count(1)
        while True:
            sender, recipient = rng.sample(range(len(DEMO_SECRETS) + SEEDED_PARTIES), 2)
            messages = []
            for _ in range(rng.randint(*MESSAGES_PER_CONVERSATION)):
                text = "".join(rng.choices(alphabet, k=next(lengths)))
                oracle_at = rng.randrange(len(text)) if rng.random() < ORACLE_SHARE else None
                messages.append((next(message_id), text, rng.getrandbits(64), oracle_at))
            yield sender, recipient, messages

    def run_op(self, state, op, tally):
        sender, recipient, messages = op
        self.mark(messages[0][0])
        try:
            t0 = perf_counter()
            enc = cipher.EncryptionContext(state.parties[sender][0], state.parties[recipient][1],
                                           state.specific[(recipient, sender)], state.table)
            t1 = perf_counter()
            dec = cipher.DecryptionContext(state.parties[recipient][0],
                                           state.parties[sender][1].k1,
                                           state.specific[(sender, recipient)], state.table)
            t2 = perf_counter()
        except Exception:
            tally.attempted += len(messages)
            for _ in messages:
                tally.fail(f"contexts {sender}->{recipient}")
            return
        tally.add("encrypt_s", t1 - t0)
        tally.add("decrypt_s", t2 - t1)
        tally.busy_s += t2 - t0
        for message_id, text, nonce_seed, oracle_at in messages:
            self.mark(message_id)
            tally.attempted += 1
            rng = random.Random(nonce_seed)
            try:
                t0 = perf_counter()
                ciphertext = cipher.encrypt_message(enc, text, rng=rng)
                t1 = perf_counter()
                plaintext = cipher.decrypt_message(dec, ciphertext)
                t2 = perf_counter()
            except Exception:
                tally.fail(f"message {message_id}")
                continue
            tally.busy_s += t2 - t0
            if plaintext != text:
                tally.fail(f"message {message_id}", f"decrypted {plaintext!r}, sent {text!r}")
                continue
            tally.record(t2 - t0)
            tally.add("encrypt_s", t1 - t0)
            tally.add("decrypt_s", t2 - t1)
            tally.add("symbols", len(text))
            if oracle_at is not None:
                pair = ciphertext[2 * oracle_at: 2 * oracle_at + 2]
                state.samples.append((message_id, sender, recipient, text[oracle_at], pair))

    def finish(self, state, tally):
        # The paper's demo vector: Bob encrypts "attack" for Alice.
        tally.attempted += 1
        text, gammas, expected = DEMO_VECTOR
        (alice, alice_pub), (bob, bob_pub) = state.parties[:2]
        try:
            enc = cipher.EncryptionContext(bob, alice_pub, state.specific[(0, 1)], state.table)
            dec = cipher.DecryptionContext(alice, bob_pub.k1, state.specific[(1, 0)], state.table)
            got = cipher.encrypt_message(enc, text, nonces=gammas)
            back = cipher.decrypt_message(dec, got)
        except Exception:
            tally.fail("demo vector")
        else:
            if (got, back) != (expected, text):
                tally.fail("demo vector", f"got {got!r} -> {back!r}, want {expected!r} -> {text!r}")
        # Sampled pairs: recover the nonce by exhaustive search and rebuild
        # E2 = M + (beta + gamma) A1 - gamma A2 + A_B with repeated addition.
        table = state.table
        for message_id, sender, recipient, symbol, pair in state.samples:
            e1, e2 = table.encode_symbol(pair[0]), table.encode_symbol(pair[1])
            gamma = reference.ecdlp_exhaustive(state.base, e1, state.order)
            beta = state.parties[sender][0].scalar
            a1, a2 = state.parties[recipient][1].k1, state.parties[recipient][1].k2
            if gamma is None:
                tally.fail(f"message {message_id}", f"E1 = {e1} is not a multiple of the base")
                continue
            rebuilt = (table.encode_symbol(symbol)
                       + reference.slow_scalar_mul(beta + gamma, a1)
                       - reference.slow_scalar_mul(gamma, a2)
                       + state.specific[(recipient, sender)].point)
            if rebuilt != e2:
                tally.fail(f"message {message_id}", f"E2 = {e2}, paper formula gives {rebuilt}")
        tally.add("oracle_pairs", len(state.samples))
        state.samples.clear()

    def report(self, tally):
        extra = tally.extra
        symbols = extra.get("symbols", 0)
        return [
            ("encrypt_symbols_per_s", symbols / extra["encrypt_s"], "symbols/s",
             f"{symbols:.0f} symbols, contexts included"),
            ("decrypt_symbols_per_s", symbols / extra["decrypt_s"], "symbols/s",
             f"{symbols:.0f} symbols, contexts included"),
            ("oracle_pairs", extra.get("oracle_pairs", 0), "count",
             "cipher pairs rechecked by the slow oracles"),
        ]


# ------------------------------------------------------------ wide-session

# E_16381(2,9): #E = 16473 = 3 * 17^2 * 19 and (2,9880) generates the whole
# group, so a 16473-symbol alphabet gives every group point a symbol.
WIDE_CURVE = ("16381", "2", "9")
WIDE_BASE = "2,9880"
WIDE_ORDER = 16473
WIDE_ALPHABET = "".join(chr(0x4E00 + i) for i in range(WIDE_ORDER))
WIDE_PARTIES = ("alice", "bob")


class WideSession(Workload):
    """The README's CLI walkthrough, one `python -m eccipher` process per command."""

    name = "wide-session"
    op_label = "encrypt or decrypt command, spawn to exit"
    setup_repeats = 7
    trace_ops = 6   # encrypt + decrypt pairs
    rss_of_children = True
    aliases = {"op_ms_p50": "command_ms_p50", "op_ms_p90": "command_ms_p90"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.env = child_env()
        self.command_id = 0

    def _command(self, argv: list[str], cwd: Path) -> tuple[bool, str, float, str]:
        """Run one eccipher command: (exit code 0, stdout, seconds, stderr)."""
        self.command_id += 1
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "eccipher", *argv]
        else:
            prefix = self.trace_dir / f"cmd-{self.command_id:05d}"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(prefix),
                   str(self.command_id), *argv]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                                  encoding="utf-8", timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, "", perf_counter() - t0, f"timed out after {COMMAND_TIMEOUT_S} s"
        elapsed = perf_counter() - t0
        return proc.returncode == 0, proc.stdout, elapsed, f"exit {proc.returncode}: {proc.stderr}"

    def setup(self, tally):
        """The key ceremony: curve init, two keygen, two derive-specific."""
        folder = Path(tempfile.mkdtemp(prefix="ceremony-", dir=self.workdir))
        key_rng = random.Random(f"{self.seed}/keys")
        steps = [["curve", "init", "--p", WIDE_CURVE[0], "--a", WIDE_CURVE[1],
                  "--b", WIDE_CURVE[2], "--base", WIDE_BASE,
                  "--alphabet", WIDE_ALPHABET, "--out", "curve.ecff"]]
        for party in WIDE_PARTIES:
            steps.append(["keygen", "--curve", "curve.ecff", "--seed", str(key_rng.getrandbits(32)),
                          "--out-private", f"{party}.priv", "--out-public", f"{party}.pub"])
        for issuer, audience in (WIDE_PARTIES, WIDE_PARTIES[::-1]):
            steps.append(["derive-specific", "--private", f"{issuer}.priv",
                          "--peer-public", f"{audience}.pub", "--issuer", issuer,
                          "--audience", audience, "--out", f"{issuer}_for_{audience}.spec"])
        for argv in steps:
            tally.attempted += 1
            ok, out, _, err = self._command(argv, folder)
            if not ok:
                tally.fail(" ".join(argv[:2]), err)
            elif argv[0] == "curve" and f"group order = {WIDE_ORDER}\n" not in out:
                tally.fail("curve init", f"printed {out!r}")
        return folder

    def ops(self):
        """(sender, recipient, message, nonce seed); the direction alternates."""
        rng = random.Random(f"{self.seed}/traffic")
        lengths = stratified_lengths(rng, 1, 256, 8)
        for i in count():
            sender, recipient = WIDE_PARTIES if i % 2 else WIDE_PARTIES[::-1]
            text = "".join(rng.choices(WIDE_ALPHABET, k=next(lengths)))
            yield sender, recipient, text, rng.getrandbits(32)

    def run_op(self, folder, op, tally):
        sender, recipient, text, nonce_seed = op
        tally.attempted += 2
        ok, out, seconds, err = self._command(
            ["encrypt", "--private", f"{sender}.priv", "--peer-public", f"{recipient}.pub",
             "--peer-specific", f"{recipient}_for_{sender}.spec",
             "--message", text, "--seed", str(nonce_seed)], folder)
        tally.busy_s += seconds
        if not ok:
            tally.fail(f"encrypt command {self.command_id}", err)
            tally.fail(f"decrypt after command {self.command_id}", "encrypt failed")
            return
        tally.record(seconds)
        tally.add("encrypt_symbols", len(text))
        ok, out, seconds, err = self._command(
            ["decrypt", "--private", f"{recipient}.priv", "--peer-public", f"{sender}.pub",
             "--peer-specific", f"{sender}_for_{recipient}.spec",
             "--cipher", out.removesuffix("\n")], folder)
        tally.busy_s += seconds
        if not ok:
            tally.fail(f"decrypt command {self.command_id}", err)
        elif out != text + "\n":
            tally.fail(f"decrypt command {self.command_id}", "output differs from the plaintext")
        else:
            tally.record(seconds)

    def report(self, tally):
        return [("encrypt_symbols", tally.extra.get("encrypt_symbols", 0), "count",
                 "plaintext symbols sent through encrypt commands")]


# --------------------------------------------------------------- key-break

# E_1048573(2,3): #E = 1050028, and (4,5120) has order n = 525014.
BREAK_CURVE = (1048573, 2, 3)
BREAK_BASE = (4, 5120)
BREAK_TARGETS = 512


@dataclass
class BreakState:
    base: object
    order: int
    targets: list   # (secret scalar, K1, K2)


class KeyBreak(Workload):
    """The README's break, alpha = ecdlp_bsgs(C, K1 - K2, n), on seeded key pairs."""

    name = "key-break"
    op_label = "one break: K1 - K2 and ecdlp_bsgs"
    setup_repeats = 3
    trace_ops = 40
    aliases = {"ops_per_s": "breaks_per_s"}

    def setup(self, tally):
        curve = curves.Curve(*BREAK_CURVE)
        curve.enumerate_points()   # the list is dropped at once; #E stays cached
        base = curve.point(*BREAK_BASE)
        order = curve.order_of(base)
        rng = random.Random(f"{self.seed}/targets")
        targets = []
        for _ in range(BREAK_TARGETS):
            private, public = keys.keygen(curve, base, rng)
            targets.append((private.scalar, public.k1, public.k2))
        return BreakState(base, order, targets)

    def ops(self):
        return count(1)

    def run_op(self, state, op, tally):
        scalar, k1, k2 = state.targets[op % len(state.targets)]
        self.mark(op)
        tally.attempted += 1
        try:
            t0 = perf_counter()
            alpha = reference.ecdlp_bsgs(state.base, k1 - k2, state.order)
            t1 = perf_counter()
        except Exception:
            tally.fail(f"break {op}")
            return
        tally.busy_s += t1 - t0
        with self.untimed():
            ok = alpha == scalar and alpha * state.base == k1 - k2
        if not ok:
            tally.fail(f"break {op}", f"recovered {alpha}, secret is {scalar}")
            return
        tally.record(t1 - t0)


WORKLOADS = {w.name: w for w in (DemoTraffic, WideSession, KeyBreak)}
