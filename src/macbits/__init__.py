"""Actively secure two-party computation on MAC-authenticated bits.

An offline dealer phase stretches a handful of seed OTs into a store of
authenticated bits, AND triples, and OT quadruples; the online phase then
evaluates any Boolean circuit one AND level at a time, deferring MAC
verification into accumulators checked before any output is released.
"""

from .abit_proto import GlobalKey, Rows
from .bitlinalg import BitVec
from .circuit import Circuit, CircuitHeader, Gate, parse_bristol, plain_eval
from .dealer import DealerConfig, MaterialStore, deal, verify_stores
from .errors import (OutOfMaterial, ParseError, ProtocolAbort, ProtocolError,
                     TransportError, UsageError)
from .runtime_2pc import Runtime, RuntimeStats
from .transport import (Channel, Role, memory_pair, run_pair, tcp_connect,
                        tcp_listen)

__version__ = "0.1.0"

__all__ = [
    "BitVec",
    "Channel",
    "Circuit",
    "CircuitHeader",
    "DealerConfig",
    "Gate",
    "GlobalKey",
    "MaterialStore",
    "OutOfMaterial",
    "ParseError",
    "ProtocolAbort",
    "ProtocolError",
    "Role",
    "Rows",
    "Runtime",
    "RuntimeStats",
    "TransportError",
    "UsageError",
    "deal",
    "memory_pair",
    "parse_bristol",
    "plain_eval",
    "run_pair",
    "tcp_connect",
    "tcp_listen",
    "verify_stores",
    "__version__",
]
