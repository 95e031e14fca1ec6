"""Service benchmarks: concurrent admission, frame codec, stream replay.

Each cell is timed against a stdlib reference doing the same network
I/O or encoding with no ``repro`` code, and gated on that ratio by
``benchmarks/harness.py``; run it standalone (``python
benchmarks/bench_service.py [--smoke|--no-write|--force-write]``) to
diff against ``BENCH_service.json``.

Every timed cell is also *verified*: the admission cell pins zero
lost/duplicated jobs (accepted responses and on-disk job directories
must agree exactly, quota rejections must carry Retry-After), the
codec cell pins payload integrity, the replay cell pins byte-identity
of every streamed record.
"""

import asyncio
import json
import math
import os
import socket
import struct
import sys
import threading
import time

import harness
from repro.experiments.campaign import encode_record_line
from repro.service import QuotaPolicy, ServiceConfig, ServiceThread
from repro.service.jobs import JobManager
from repro.service.protocol import (
    OP_BINARY,
    OP_CLOSE,
    OP_TEXT,
    WebSocket,
    decode_frame,
    encode_frame,
)
from repro.service.stream import stream_job

SUBMISSIONS = 1000
#: connections open at once.  The service listens with asyncio's default
#: backlog of 100; more simultaneous connects overflow it, and the 1 s
#: SYN retransmits that follow would dominate the storm's wall time.
IN_FLIGHT = 64
MAX_QUEUED = 512
#: generous ceiling on p99 admission latency — the pin is "bounded",
#: the ratio gate on total seconds tracks the trend
P99_CEILING_SECONDS = 5.0

CODEC_FRAMES = 20_000
REPLAY_RECORDS = 2_000

SPEC = {"game": {"name": "sg", "params": {"mode": "sum"}},
        "topology": {"name": "budget", "params": {"budget": 2}}}
PAYLOAD = {"kind": "trial", "spec": SPEC, "n": 8, "trials": 3, "seed": 5}
BODY = json.dumps(PAYLOAD).encode()


async def _submit_once(host: str, port: int, token: str):
    """One raw POST /jobs over its own connection; returns
    (status, parsed body, headers, seconds)."""
    t0 = time.perf_counter()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (f"POST /jobs HTTP/1.1\r\nHost: bench\r\n"
                f"X-Client-Token: {token}\r\n"
                f"Content-Length: {len(BODY)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        writer.write(head + BODY)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    seconds = time.perf_counter() - t0
    status = int(raw.split(b" ", 2)[1])
    headers, _, payload = raw.partition(b"\r\n\r\n")
    return status, json.loads(payload), headers.decode(), seconds


async def _storm(host: str, port: int):
    gate = asyncio.Semaphore(IN_FLIGHT)

    async def submit(i):
        async with gate:
            return await _submit_once(host, port, f"client-{i % 16}")

    return await asyncio.gather(*(submit(i) for i in range(SUBMISSIONS)))


def bench_admission(root, clock) -> dict:
    """SUBMISSIONS submissions, IN_FLIGHT at a time, against an
    admission-only server: zero lost or duplicated jobs, quotas
    enforced, p99 bounded."""
    config = ServiceConfig(
        state_dir=root / "state", workers=0,
        quota=QuotaPolicy(max_queued=MAX_QUEUED,
                          max_jobs_per_client=SUBMISSIONS))
    with ServiceThread(config) as svc:
        with clock:
            results = asyncio.run(_storm(config.host, svc.port))

    accepted = [p["id"] for status, p, _, _ in results if status == 201]
    rejected = [(p, headers) for status, p, headers, _ in results
                if status == 503]
    latencies = sorted(lat for _, _, _, lat in results)
    p99 = latencies[int(len(latencies) * 0.99) - 1]

    # zero lost, zero duplicated: the 201 ids and the on-disk job
    # directories are exactly the same set
    assert len(accepted) == len(set(accepted)) == MAX_QUEUED, len(accepted)
    assert len(accepted) + len(rejected) == SUBMISSIONS
    on_disk = {p.name for p in (root / "state" / "jobs").iterdir()}
    assert on_disk == set(accepted), "job table diverged from responses"
    for payload, headers in rejected:
        assert payload["error"] == "saturated"
        assert "retry-after:" in headers.lower()
    assert p99 < P99_CEILING_SECONDS, f"p99 admission latency {p99:.3f}s"
    return {"accepted": len(accepted), "rejected": len(rejected),
            "p99_ms": round(p99 * 1000, 1)}


def stdlib_admission(root, clock) -> None:
    """The same storm against a bare asyncio server on its own thread,
    as the service is: parse each request, persist the first MAX_QUEUED
    as job files and answer 201, refuse the rest with 503."""
    accepted, stop = [], threading.Event()

    async def handle(reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
        job = json.loads(await reader.readexactly(length))
        if len(accepted) < MAX_QUEUED:
            accepted.append(os.urandom(8).hex())
            tmp = root / f"{accepted[-1]}.tmp"
            tmp.write_text(json.dumps({"id": accepted[-1], **job}))
            os.replace(tmp, tmp.with_suffix(".json"))
            status, body = b"201 Created", {"id": accepted[-1]}
        else:
            status, body = b"503 Unavailable\r\nRetry-After: 1", {"error": "saturated"}
        payload = json.dumps(body).encode()
        writer.write(b"HTTP/1.1 %s\r\nContent-Length: %d\r\n"
                     b"Connection: close\r\n\r\n%s" % (status, len(payload), payload))
        await writer.drain()
        writer.close()

    async def serve(sock):
        server = await asyncio.start_server(handle, sock=sock)
        while not stop.is_set():
            await asyncio.sleep(0.01)
        server.close()
        await server.wait_closed()

    sock = socket.create_server(("127.0.0.1", 0))
    thread = threading.Thread(target=asyncio.run, args=(serve(sock),))
    thread.start()
    try:
        with clock:
            asyncio.run(_storm("127.0.0.1", sock.getsockname()[1]))
    finally:
        stop.set()
        thread.join()


def _codec_payloads():
    return [(b"%d:" % i) + b"x" * (64 + (i % 3) * 97) for i in range(CODEC_FRAMES)]


def bench_ws_codec(root, clock) -> dict:
    """Encode + decode CODEC_FRAMES masked frames (the per-record cost
    of a stream); pins payload integrity through the mask round-trip."""
    payloads = _codec_payloads()
    with clock:
        wire = b"".join(
            encode_frame(OP_BINARY, p, mask=bool(i % 2))
            for i, p in enumerate(payloads))
        count = 0
        view = memoryview(wire)
        offset = 0
        while offset < len(wire):
            # fixed-size window: frames here are small, and slicing the
            # whole tail each iteration would be quadratic
            frame, consumed = decode_frame(bytes(view[offset:offset + 1024]))
            assert frame.payload == payloads[count]
            offset += consumed
            count += 1
    assert count == CODEC_FRAMES
    return {"frames": count}


def _xor(data: bytes, key: bytes) -> bytes:
    if not key:
        return data
    mask = int.from_bytes((key * (len(data) // 4 + 1))[:len(data)], "big")
    return (int.from_bytes(data, "big") ^ mask).to_bytes(len(data), "big")


def _frame(payload: bytes, opcode: int = 0x2, key: bytes = b"") -> bytes:
    """RFC 6455 framing with struct, for payloads under 64 KiB."""
    n = len(payload)
    head = struct.pack("!BB", 0x80 | opcode,
                       (0x80 if key else 0) | (n if n < 126 else 126))
    if n >= 126:
        head += struct.pack("!H", n)
    return head + key + _xor(payload, key)


def _unframe(wire: bytes):
    offset = 0
    while offset < len(wire):
        b1 = wire[offset + 1]
        n, offset = b1 & 0x7F, offset + 2
        if n == 126:
            n, offset = struct.unpack_from("!H", wire, offset)[0], offset + 2
        key = b""
        if b1 & 0x80:
            key, offset = wire[offset:offset + 4], offset + 4
        yield _xor(wire[offset:offset + n], key)
        offset += n


def stdlib_codec(root, clock) -> None:
    """The same frames through a struct-and-XOR codec."""
    payloads = _codec_payloads()
    with clock:
        wire = b"".join(_frame(p, key=os.urandom(4) if i % 2 else b"")
                        for i, p in enumerate(payloads))
        assert list(_unframe(wire)) == payloads


class _SinkWriter:
    """In-memory websocket peer for the replay cell."""

    def __init__(self):
        self.sent = bytearray()

    def write(self, data):
        self.sent += data

    async def drain(self):
        pass


def _replay_lines():
    return [encode_record_line({"cell": "bench-n8", "trial": i,
                                "steps": i % 40, "status": "converged"})
            for i in range(REPLAY_RECORDS)]


def bench_stream_replay(root, clock) -> dict:
    """Replay REPLAY_RECORDS stored records through stream_job; pins
    byte-identity of every streamed line."""
    manager = JobManager(root / "state", workers=0)
    manager.recover()
    job = manager.submit({**PAYLOAD, "trials": REPLAY_RECORDS}, client="bench")
    store = manager.store_dir(job.id)
    store.mkdir(parents=True)
    lines = _replay_lines()
    (store / "trials-0of1.jsonl").write_text("".join(l + "\n" for l in lines))
    job.state = "done"
    manager._persist(job)

    writer = _SinkWriter()

    async def run():
        reader = asyncio.StreamReader()
        await stream_job(manager, job, WebSocket(reader, writer),
                         poll=0.001, queue_limit=REPLAY_RECORDS + 16)

    with clock:
        asyncio.run(asyncio.wait_for(run(), timeout=120))

    got, closed = [], False
    buf = bytes(writer.sent)
    while buf:
        decoded = decode_frame(buf)
        if decoded is None:
            break
        frame, consumed = decoded
        buf = buf[consumed:]
        if frame.opcode == OP_CLOSE:
            closed = True
        elif frame.opcode == OP_TEXT:
            text = frame.payload.decode()
            if '"event"' not in text:
                got.append(text)
    assert got == lines, "streamed records diverged from the store"
    assert closed
    return {"records": len(got)}


def stdlib_replay(root, clock) -> None:
    """Read the same stored lines, frame each as text, read them back."""
    path = root / "trials-0of1.jsonl"
    path.write_text("".join(l + "\n" for l in _replay_lines()))
    with clock:
        with open(path, "rb") as fh:
            lines = [line.rstrip(b"\n") for line in fh]
        wire = b"".join(_frame(line, opcode=0x1) for line in lines)
        assert list(_unframe(wire)) == lines


CELLS = [
    harness.Cell("admit-1k-concurrent", bench_admission, stdlib_admission,
                 smoke=True, reps=(41, 15)),
    harness.Cell("ws-codec-20k", bench_ws_codec, stdlib_codec, smoke=True,
                 floor=0.0),
    # its reference runs in milliseconds: too short to divide by
    harness.Cell("stream-replay-2k", bench_stream_replay, stdlib_replay,
                 floor=math.inf),
]


def test_bench_cells_verify():
    """Every cell's identity pins hold (timings ignored)."""
    for cell in CELLS:
        harness.time_once(cell.run)
        harness.time_once(cell.reference)


if __name__ == "__main__":
    sys.exit(harness.main(CELLS, harness.REPO_ROOT / "BENCH_service.json"))
