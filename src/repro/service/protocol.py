"""Newline-delimited JSON over a local socket.

Every service message — request, response, and streamed progress
event — is one JSON object on one line, UTF-8, ``\\n``-terminated.
Requests carry an ``"op"`` field; responses carry ``"ok"`` (plus the
payload) or ``"ok": false`` with an ``"error"`` string.  The framing
is deliberately the same as the job journal's: everything in the
service is a line of JSON, greppable and replayable.

Both flavours live here: the asyncio pair used by the server
(:func:`send_message` / :func:`read_message`) and the blocking pair
used by the client (:func:`send_line` / :func:`recv_line`).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

#: Upper bound on one message line — a matrix payload is well under
#: this; anything bigger is a protocol violation, not data.
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent something that is not one JSON object per line."""


def encode(message: Dict[str, Any]) -> bytes:
    """One message → one UTF-8 line (sorted keys: byte-stable)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """One line → one message dict (raises :class:`ProtocolError`)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}")
    return message


# --- asyncio side (server) ------------------------------------------------


async def send_message(writer: asyncio.StreamWriter,
                       message: Dict[str, Any]) -> None:
    """Write one message line and drain."""
    writer.write(encode(message))
    await writer.drain()


async def read_message(reader: asyncio.StreamReader
                       ) -> Optional[Dict[str, Any]]:
    """Read one message line; ``None`` on clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError) as exc:
        raise ProtocolError(f"connection failed mid-line: {exc}") from exc
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError("connection closed mid-line")
    return decode(line)


# --- blocking side (client) -----------------------------------------------


def send_line(sock, message: Dict[str, Any]) -> None:
    """Send one message line on a blocking socket."""
    sock.sendall(encode(message))


def recv_line(fh) -> Optional[Dict[str, Any]]:
    """Read one message line from ``sock.makefile('rb')``; ``None``
    on clean EOF."""
    line = fh.readline(MAX_LINE_BYTES)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError("connection closed mid-line")
    return decode(line)


__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "decode",
    "encode",
    "read_message",
    "recv_line",
    "send_line",
    "send_message",
]
