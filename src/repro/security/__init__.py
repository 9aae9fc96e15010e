"""The security concern: trust metadata, toy crypto, AM_sec.

Implements §3.2's second non-functional concern: a boolean SLA ("all
communications crossing untrusted domains are secured") enforced both
reactively (the manager's own control loop) and proactively (intent
review inside the two-phase protocol).
"""

from .. import _lazy_exports

#: where each export lives.  Resolved on first access (PEP 562), never at
#: package import: a dist worker imports this package for ``crypto``
#: alone, and must not pay for the managers (docs/ARCHITECTURE.md,
#: "Worker import closure")
_HOME = {
    "CryptoCostModel": "crypto",
    "CryptoError": "crypto",
    "encrypt": "crypto",
    "decrypt": "crypto",
    "keystream_xor": "crypto",
    "SecurityPolicy": "domains",
    "TrustRegistry": "domains",
    "SecurityABC": "manager",
    "SecurityManager": "manager",
    "ExposureBean": "manager",
    "LeakBean": "manager",
}

__all__ = list(_HOME)

__getattr__, __dir__ = _lazy_exports(__name__, _HOME)
