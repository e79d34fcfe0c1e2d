"""Point-coded message encryption over small prime-field elliptic curves.

The pieces, bottom up: validated prime moduli and mod-p square roots, the
short Weierstrass group law on plain ints, a code table pairing a text
alphabet with curve points, a three-tier key scheme (private, general
public, per-peer specific public), a randomized two-point cipher over that
table, canonical key files, and brute-force reference oracles for auditing
all of it at desk scale.

Deliberately small and exhaustively checkable; not hardened cryptography.
"""

from .cipher import (
    CipherPair,
    DecryptionContext,
    EncryptionContext,
    InvalidCiphertextError,
    MalformedCiphertextError,
    MessageTooLongError,
    decrypt_message,
    decrypt_point,
    encrypt_message,
    encrypt_point,
)
from .codec import (
    DEFAULT_ALPHABET,
    AlphabetTooLargeError,
    CodeTable,
    UnknownPointError,
    UnknownSymbolError,
)
from .curve import (
    Curve,
    CurveTooLargeError,
    Point,
    PointNotOnCurveError,
    SingularCurveError,
)
from .field import FieldElement, Prime
from .keyfile import (
    CurveSetup,
    GeneralPublicKeyFile,
    KeyFileError,
    PrivateKeyFile,
    SpecificPublicKeyFile,
)
from .keys import (
    GeneralPublicKey,
    PrivateKey,
    SpecificPublicKey,
    derive_specific,
    keygen,
    keypair_from_secret,
)
from .reference import ecdlp_bsgs, ecdlp_exhaustive, slow_scalar_mul

__all__ = [
    "AlphabetTooLargeError",
    "CipherPair",
    "CodeTable",
    "Curve",
    "CurveSetup",
    "CurveTooLargeError",
    "DecryptionContext",
    "DEFAULT_ALPHABET",
    "EncryptionContext",
    "FieldElement",
    "GeneralPublicKey",
    "GeneralPublicKeyFile",
    "InvalidCiphertextError",
    "KeyFileError",
    "MalformedCiphertextError",
    "MessageTooLongError",
    "Point",
    "PointNotOnCurveError",
    "Prime",
    "PrivateKey",
    "PrivateKeyFile",
    "SingularCurveError",
    "SpecificPublicKey",
    "SpecificPublicKeyFile",
    "UnknownPointError",
    "UnknownSymbolError",
    "decrypt_message",
    "decrypt_point",
    "derive_specific",
    "ecdlp_bsgs",
    "ecdlp_exhaustive",
    "encrypt_message",
    "encrypt_point",
    "keygen",
    "keypair_from_secret",
    "slow_scalar_mul",
]
