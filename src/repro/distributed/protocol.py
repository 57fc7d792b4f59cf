"""Wire protocol of the distributed sweep executor.

Frames are length-prefixed JSON with an optional raw binary payload:

.. code-block:: text

    +----------------+---------------------+----------------------+
    | 4 bytes (BE)   | <header_len> bytes  | header["blob_len"]   |
    | header length  | UTF-8 JSON header   | raw bytes (optional) |
    +----------------+---------------------+----------------------+

Every message is a JSON object with a ``"type"`` key; a header that
declares ``"blob_len"`` is immediately followed by exactly that many raw
bytes (shard ``.npz`` contents or serialized DP tables — they are never
JSON-encoded, so a megabyte table costs a megabyte on the wire).

Message catalogue (worker -> coordinator, with the coordinator's replies):

``hello {protocol, worker_id, spec_digest?}``
    Handshake.  Reply ``welcome {run_id, num_points, lease_ttl, spec,
    tables}`` or ``error`` (protocol or spec-digest mismatch; fatal).
    ``tables`` lists the key ``[L, c, p, method]`` of every DP table the
    coordinator solved for the run's pending points.
``lease {worker_id}``
    Ask for work.  Reply ``grant {index, lease_id, ttl, payload_digest?}``,
    ``wait {retry_after}`` (everything leased out, not everything done),
    or ``done {}`` (run complete — disconnect).
``heartbeat {worker_id, lease_ids}``
    Renew held leases.  Reply ``ok {renewed, lost}``; a lease in ``lost``
    expired and was handed to someone else — abandon that point.
``table {key}``
    Fetch one of the tables ``welcome`` listed.  Reply
    ``table {key, sha256, blob_len}`` + blob; a key not in the list gets a
    soft ``error``.
``result {worker_id, index, lease_id, sha256, blob_len}`` + blob
    Stream one completed point's shard bytes.  Reply
    ``ok {accepted, duplicate}`` or ``error {message, fatal}``.
``bye {worker_id}``
    Polite disconnect (reply ``ok {}``); a vanished socket means the
    same thing, just less politely.

The protocol is deliberately synchronous per connection (one
request/one reply); concurrency comes from many worker connections, and
a worker's heartbeat thread shares its socket through the
:class:`Connection` RPC lock.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, Optional, Tuple

from ..core.exceptions import CycleStealingError

__all__ = ["PROTOCOL_VERSION", "ProtocolError", "send_frame", "recv_frame",
           "Connection", "check_error", "fatal_error", "soft_error",
           "resolve_bind", "connect"]

#: Bump on any incompatible frame/message change; the handshake refuses
#: mismatched peers before any work is leased.
PROTOCOL_VERSION = 2

_LEN = struct.Struct(">I")

#: A JSON header larger than this is garbage (or a stream desync), not a
#: message — fail fast instead of trying to allocate it.
MAX_HEADER_BYTES = 4 * 1024 * 1024

#: Blobs are shards (KBs) or DP tables (MBs); anything near this bound
#: indicates a desynchronised stream, not a legitimate payload.
MAX_BLOB_BYTES = 1 << 30


class ProtocolError(CycleStealingError):
    """Malformed frame, protocol mismatch, or a fatal peer error reply."""


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise (EOF mid-frame is an error)."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, header: Dict[str, Any],
               blob: bytes = b"") -> None:
    """Serialize and send one frame (header JSON + optional blob)."""
    if blob:
        header = dict(header, blob_len=len(blob))
    encoded = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    sock.sendall(_LEN.pack(len(encoded)) + encoded + blob)


def recv_frame(sock: socket.socket) -> Tuple[Dict[str, Any], bytes]:
    """Receive one frame; returns ``(header, blob)`` (blob may be empty)."""
    header_len = _LEN.unpack(_recv_exact(sock, _LEN.size))[0]
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"frame header of {header_len} bytes exceeds the "
                            f"{MAX_HEADER_BYTES}-byte bound (stream desync?)")
    try:
        header = json.loads(_recv_exact(sock, header_len).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError(f"frame header is not a typed object: {header!r}")
    blob_len = header.get("blob_len", 0)
    if not isinstance(blob_len, int) or blob_len < 0 \
            or blob_len > MAX_BLOB_BYTES:
        raise ProtocolError(f"invalid blob_len {blob_len!r}")
    blob = _recv_exact(sock, blob_len) if blob_len else b""
    return header, blob


class Connection:
    """A framed socket with an RPC lock (one request/reply at a time).

    The worker's heartbeat thread and its main lease loop share one
    socket; the lock serialises whole request/reply exchanges so frames
    never interleave.  Evaluation (the long part) happens outside the
    lock — only the wire time is serialised.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()

    def request(self, header: Dict[str, Any],
                blob: bytes = b"") -> Tuple[Dict[str, Any], bytes]:
        """Send one frame and block for the single reply frame."""
        with self._lock:
            send_frame(self._sock, header, blob)
            return recv_frame(self._sock)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def check_error(header: Dict[str, Any]) -> Dict[str, Any]:
    """Raise :class:`ProtocolError` when a reply is an ``error`` message."""
    if header.get("type") == "error":
        raise ProtocolError(str(header.get("message", "peer reported error")))
    return header


def fatal_error(message: str) -> Dict[str, Any]:
    """An ``error`` reply after which the peer should disconnect."""
    return {"type": "error", "message": message, "fatal": True}


def soft_error(message: str) -> Dict[str, Any]:
    """An ``error`` reply the peer may recover from (keep the connection)."""
    return {"type": "error", "message": message, "fatal": False}


def resolve_bind(address: str) -> Tuple[str, int]:
    """Parse a ``host:port`` bind/connect string (port may be 0)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ProtocolError(
            f"address {address!r} is not of the form host:port")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ProtocolError(f"invalid port in address {address!r}") from exc


def connect(host: str, port: int, *, timeout: Optional[float] = None,
            retry_for: float = 0.0, retry_interval: float = 0.2) -> Connection:
    """Open a connection, optionally retrying while the peer comes up.

    ``retry_for`` seconds of connection refusals are tolerated (workers
    routinely start before their coordinator has bound its socket);
    other socket errors propagate immediately.
    """
    import time

    deadline = time.monotonic() + retry_for
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(timeout)
            return Connection(sock)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(retry_interval)
