import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

import eccipher as ec
import eccipher.curve as curve_module
import vectors


@pytest.fixture(scope="session")
def cli_env():
    """The environment of a `python -m eccipher` child process.

    The child gets the directory holding the `eccipher` package this test
    process imported at the front of its PYTHONPATH, so it runs the same code
    whether that came from `src` (given relative or absolute) or from an
    installed copy.  Every other environment entry is passed on unchanged.
    """
    package_root = str(Path(ec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def run_cli(cli_env):
    """Run `python -m eccipher ARGS...` as a child process in directory `cwd`,
    in the environment `cli_env` gives."""

    def run(*args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "eccipher", *map(str, args)],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cli_env,
        )

    return run


@pytest.fixture(scope="session")
def e37() -> ec.Curve:
    return ec.Curve(vectors.P, vectors.A, vectors.B)


@pytest.fixture(scope="session")
def e37_base(e37) -> ec.Point:
    return e37.point(*vectors.BASE)


@pytest.fixture(scope="session")
def e37_table(e37) -> ec.CodeTable:
    return ec.CodeTable.from_generator(e37, e37.point(*vectors.TABLE_POINT), vectors.ALPHABET)


@dataclass(frozen=True)
class DemoKeys:
    """The fixed two-party key set used throughout the demonstration vectors."""

    alice_private: ec.PrivateKey
    alice_public: ec.GeneralPublicKey
    bob_private: ec.PrivateKey
    bob_public: ec.GeneralPublicKey
    alice_specific: ec.SpecificPublicKey   # alice's key for bob
    bob_specific: ec.SpecificPublicKey     # bob's key for alice


@pytest.fixture(scope="session")
def demo_keys(e37, e37_base) -> DemoKeys:
    alice_private, alice_public = ec.keypair_from_secret(
        e37, e37_base, vectors.ALICE_SCALAR, e37.point(*vectors.ALICE_POINT)
    )
    bob_private, bob_public = ec.keypair_from_secret(
        e37, e37_base, vectors.BOB_SCALAR, e37.point(*vectors.BOB_POINT)
    )
    return DemoKeys(
        alice_private=alice_private,
        alice_public=alice_public,
        bob_private=bob_private,
        bob_public=bob_public,
        alice_specific=ec.derive_specific(alice_private, bob_public.k2, "alice", "bob"),
        bob_specific=ec.derive_specific(bob_private, alice_public.k2, "bob", "alice"),
    )


@pytest.fixture(scope="session")
def bob_to_alice(e37_table, demo_keys) -> ec.EncryptionContext:
    return ec.EncryptionContext(
        sender_private=demo_keys.bob_private,
        recipient_general=demo_keys.alice_public,
        recipient_specific=demo_keys.alice_specific,
        table=e37_table,
    )


@pytest.fixture(scope="session")
def alice_from_bob(e37_table, demo_keys) -> ec.DecryptionContext:
    return ec.DecryptionContext(
        recipient_private=demo_keys.alice_private,
        sender_k1=demo_keys.bob_public.k1,
        sender_specific=demo_keys.bob_specific,
        table=e37_table,
    )


@pytest.fixture(scope="session")
def e31() -> ec.Curve:
    return ec.Curve(vectors.ALT_P, vectors.ALT_A, vectors.ALT_B)


@pytest.fixture(scope="session")
def e1009() -> ec.Curve:
    return ec.Curve(vectors.MID_P, vectors.MID_A, vectors.MID_B)


@pytest.fixture()
def enumerations(monkeypatch):
    """The curve of every enumerate_points() call made while the test runs."""
    enumerated = []
    original = ec.Curve.enumerate_points

    def counting_enumerate(self):
        enumerated.append(self)
        return original(self)

    monkeypatch.setattr(ec.Curve, "enumerate_points", counting_enumerate)
    return enumerated


@pytest.fixture()
def searches(monkeypatch):
    """The point of every Curve._hasse_multiple() call made while the test runs."""
    searched = []
    original = ec.Curve._hasse_multiple

    def counting_search(self, point):
        searched.append(point)
        return original(self, point)

    monkeypatch.setattr(ec.Curve, "_hasse_multiple", counting_search)
    return searched


@pytest.fixture()
def additions(monkeypatch):
    """Every group addition made while the test runs, each counted once:
    each Point.__add__ call as (P, Q), and each step that the baby-step
    giant-step core makes on coordinate pairs with curve._chord, as its two
    (x, y) pairs or None for infinity.  Point.__add__ takes its sum from
    _chord too, so a _chord call made inside it is not counted again."""
    made = []
    adding = []   # non-empty while a Point.__add__ call runs
    original_add = ec.Point.__add__
    original_chord = curve_module._chord

    def counting_add(self, other):
        made.append((self, other))
        adding.append(True)
        try:
            return original_add(self, other)
        finally:
            adding.pop()

    def counting_chord(p, a, first, second):
        if not adding:
            made.append((first, second))
        return original_chord(p, a, first, second)

    monkeypatch.setattr(ec.Point, "__add__", counting_add)
    monkeypatch.setattr(curve_module, "_chord", counting_chord)
    return made


@pytest.fixture()
def race():
    """Run worker(*args) for each args tuple, one thread each, and wait.

    The interpreter switches threads every microsecond while they run, so
    they interleave finely; each is joined with a 120 s timeout, and none
    may be left running.  A worker records its own failures."""
    def run(worker, arguments):
        threads = [threading.Thread(target=worker, args=args) for args in arguments]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    return run
