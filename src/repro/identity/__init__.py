"""Identity primitives: stable identifiers, content hashing, canonical JSON.

Every entity in the system (workflows, modules, connections, runs, executions,
artifacts, annotations, versions) carries a globally unique identifier.  Data
artifacts are additionally identified by a *content hash* so that
reproducibility checks ("did rerunning produce the same bytes?") and caching
("have we computed this before?") can be answered by hash equality.

Identifiers are prefixed strings (``art-3f2a...``) rather than bare UUIDs so
that a provenance log remains human-readable and so that malformed cross-kind
references can be caught early (see :func:`kind_of`).
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
import time
from typing import Any

__all__ = [
    "new_id",
    "kind_of",
    "is_id",
    "canonical_json",
    "content_hash",
    "hash_value",
    "IdentityError",
]

#: Identifier prefixes for every entity kind in the system.
KNOWN_KINDS = (
    "wf",       # workflow specification
    "mod",      # module instance inside a workflow
    "conn",     # connection between module ports
    "run",      # one execution of a workflow
    "exec",     # one execution of a module within a run
    "art",      # data artifact (a value that flowed through a port)
    "ann",      # annotation
    "ver",      # version in an evolution (vistrail) tree
    "act",      # change action in an evolution tree
    "user",     # collaboratory user
    "view",     # ZOOM user view
    "acct",     # OPM account
    "rel",      # database relation
    "tup",      # database tuple
    "lease",    # compute-lease claim on a result-cache key
)


class IdentityError(ValueError):
    """Raised when an identifier is malformed or of an unexpected kind."""


class _IdClock:
    """Per-process state behind :func:`new_id`: the last millisecond used,
    a counter with a random start, and a random node."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.last_ms = 0
        self.counter = secrets.randbits(32)
        self.node = f"{secrets.randbits(48):012x}"


_CLOCK = _IdClock()


def _reseed_after_fork() -> None:
    # a forked child must not repeat its parent's counter and node (and
    # must not inherit a lock some parent thread held at fork time)
    global _CLOCK
    _CLOCK = _IdClock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reseed_after_fork)


def new_id(kind: str) -> str:
    """Return a fresh unique identifier for an entity of ``kind``.

    The body is 32 hex digits: a 48-bit millisecond clock, a 32-bit
    per-process counter, then a 48-bit per-process random node.  Ids are
    *time-ordered* because stores key their tables on them: random ids
    insert at random B-tree positions, so a relational store's saves slow
    down as its file grows, while ordered ids append at the right edge and
    keep saves flat.  Within a process, ids are strictly increasing (the
    clock never steps back, and a counter wrap advances it); across
    processes, the random node keeps them apart.

    >>> ident = new_id("art")
    >>> ident.startswith("art-")
    True
    """
    if kind not in KNOWN_KINDS:
        raise IdentityError(f"unknown identifier kind: {kind!r}")
    clock = _CLOCK
    with clock.lock:
        now = time.time_ns() // 1_000_000
        counter = clock.counter = (clock.counter + 1) & 0xFFFFFFFF
        if now < clock.last_ms or (counter == 0 and now == clock.last_ms):
            now = clock.last_ms + (counter == 0)
        clock.last_ms = now
    return f"{kind}-{now & 0xFFFFFFFFFFFF:012x}{counter:08x}{clock.node}"


def is_id(value: Any) -> bool:
    """Return True if ``value`` looks like an identifier produced by new_id."""
    if not isinstance(value, str) or "-" not in value:
        return False
    kind, _, rest = value.partition("-")
    return kind in KNOWN_KINDS and len(rest) > 0


def kind_of(identifier: str) -> str:
    """Return the entity kind encoded in ``identifier``.

    Raises :class:`IdentityError` when the identifier is malformed.
    """
    if not is_id(identifier):
        raise IdentityError(f"malformed identifier: {identifier!r}")
    return identifier.partition("-")[0]


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to deterministic JSON (sorted keys, no whitespace).

    Canonical JSON underlies content hashing: two structurally equal values
    always produce identical byte strings.  Non-JSON scalars are converted via
    ``str`` as a last resort so arbitrary parameter values can be hashed.
    """
    return _CANONICAL_ENCODER.encode(value)


def _json_fallback(value: Any) -> Any:
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy arrays and scalars
        return tolist()
    return str(value)


# built once: json.dumps with any non-default argument constructs a new
# JSONEncoder per call, which dominated short payloads such as cache keys
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      default=_json_fallback)


def content_hash(data: bytes) -> str:
    """Return the hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def hash_value(value: Any) -> str:
    """Hash an arbitrary Python value by way of its canonical encoding.

    Bytes hash directly; everything else goes through canonical JSON. This is
    the hash used for artifact identity and cache keys.
    """
    if isinstance(value, bytes):
        return content_hash(b"bytes:" + value)
    return content_hash(("json:" + canonical_json(value)).encode("utf-8"))
