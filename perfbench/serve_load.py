"""``serve_mixed``: a closed-loop request mix against ``bonsai serve``.

The daemon runs in its own process (``--jobs 2 --batch-max 4``).  One
client thread drives two connections (the host's CPU count), each with
two request slots: a slot sends its next request as soon as its last
one is answered.  The mix is 70% cache-miss sorts (fresh seed each),
20% repeats of a 4-job hot set warmed before timing, and 10%
``optimize`` requests with random sizes and objectives, in shuffled
blocks of ten per connection (`MIX`).  Latency runs from send to
response.

The daemon's batch former has two stable cycles under this load.  With
four requests out, it either alternates batches of two, each pair
sharing one fresh pool, or alternates a job that runs alone, sharding
its merge stages over three fresh pools, with a batch of the other
three.  Replies come back the way their batch went out, so either
cycle feeds itself, often for a whole 20 s loop, and on a 2-vCPU host
the first serves about 1.7x the requests per second of the second.
One long loop reports whichever cycle it fell into, so the window is
split into ``EPISODES`` closed loops on the same daemon, each with its
own request stream and started once the previous one's replies are
all in.  Between episodes, while the daemon is idle, the host-speed
reference runs (see ``hostspeed``) and scales the episode it brackets.  Rates cover the requests of all episodes; latency
percentiles are each episode's, averaged over the episodes.  The result
notes record what each episode saw: its rate and the share of its
executed jobs that ran alone (``episode_solo_share``: near 0 in the
paired cycle, near 0.25 in the other).

For a traced run the daemon starts through ``serve_launcher.py``, which
installs the layer wrappers first and writes the daemon's spans when it
drains.
"""

from __future__ import annotations

import glob
import os
import resource
import select
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
from repro.obs.sink import read_jsonl

from perfbench import hostspeed, layers
from perfbench.workloads import (
    LEAVES,
    P,
    PLATFORM,
    Op,
    Outcome,
    Sizes,
    derive,
    payload_cycles,
    peak_rss_mb,
    sorted_digest,
)

SERVE_FLAGS = ["--jobs", "2", "--batch-max", "4"]
CONNECTIONS = 2
IN_FLIGHT = 2
#: One block of the request mix; each connection sends the classes of
#: block after shuffled block, so every ten of its requests hold exactly
#: this mix and an episode's cost does not hinge on how many misses it
#: happened to draw.
MIX = ("miss",) * 7 + ("hit",) * 2 + ("optimize",)
HOT_JOBS = 4
OBJECTIVES = ("latency", "throughput")
MIB = 1 << 20
#: Extra daemons started only to time spawn-to-ping; the timed daemon
#: is one more sample.
SETUP_DAEMONS = 3
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 120.0
#: Closed loops per run; each samples the batching state afresh.
EPISODES = 32
#: Replies of one batch reach the client within this of each other.
BURST_GAP_S = 0.001


class Connection:
    """One NDJSON connection; replies are read in arrival order."""

    def __init__(self, path: str) -> None:
        from repro.serve import protocol

        self._protocol = protocol
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(REPLY_TIMEOUT_S)
        try:
            self._sock.connect(path)
        except OSError:
            self._sock.close()
            raise
        self._buffer = b""

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, request_id: str, kind: str, params: dict | None = None) -> None:
        request = self._protocol.Request(id=request_id, kind=kind,
                                         params=params or {})
        self._sock.sendall(request.encode())

    def read(self) -> list[dict]:
        """Read once (blocking) and return every reply now complete."""
        data = self._sock.recv(1 << 16)
        if not data:
            raise ConnectionError("daemon closed the connection")
        *lines, self._buffer = (self._buffer + data).split(b"\n")
        return [self._protocol.decode_response(line) for line in lines]

    def call(self, kind: str, params: dict | None = None) -> dict:
        self.send("x", kind, params)
        replies: list[dict] = []
        while not replies:
            replies = self.read()
        return replies[0]

    def close(self) -> None:
        self._sock.close()


@dataclass
class Reply:
    cls: str
    kind: str
    params: dict
    sent: float
    received: float
    response: dict | None
    error: str | None = None
    in_window: bool = True


def sort_params(records: int, seed: int) -> dict:
    return {"records": records, "workload": "uniform", "seed": seed,
            "p": P, "leaves": LEAVES, "mode": "model", "platform": PLATFORM}


def _start(root: str, socket_path: str, log, spans: str | None):
    """Start a daemon; returns it and the seconds until it answers ping."""
    if spans is None:
        command = [sys.executable, "-m", "repro.cli", "serve"]
    else:
        command = [sys.executable, os.path.join("perfbench", "serve_launcher.py"),
                   spans, "serve"]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    begin = time.perf_counter()
    daemon = subprocess.Popen(
        [*command, "--socket", socket_path, *SERVE_FLAGS],
        cwd=root, env=env, stdout=log, stderr=log)
    while True:
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited with {daemon.returncode} "
                               "before answering ping")
        try:
            conn = Connection(socket_path)
        except OSError:
            if time.perf_counter() - begin > START_TIMEOUT_S:
                _stop(daemon, None)
                raise RuntimeError("daemon did not listen in time") from None
            time.sleep(0.002)
            continue
        try:
            if conn.call("ping")["status"] == "ok":
                return daemon, time.perf_counter() - begin
        finally:
            conn.close()


def _stop(daemon: subprocess.Popen, socket_path: str | None) -> None:
    """Drain the daemon through ``shutdown``; kill it if that fails."""
    if socket_path is not None and daemon.poll() is None:
        try:
            conn = Connection(socket_path)
            try:
                conn.call("shutdown")
            finally:
                conn.close()
        except OSError:  # the daemon is gone or stuck; the kill below ends it
            pass
    try:
        daemon.wait(timeout=60)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()


def mix_classes(seed: int, connection: int):
    """The endless class sequence of one connection: shuffled `MIX` blocks."""
    rng = np.random.default_rng(derive(seed, 6, connection))
    while True:
        yield from (MIX[i] for i in rng.permutation(len(MIX)))


def _load(socket_path: str, seed: int, episode: int, records: int,
          hot: list[dict], seconds: float,
          classes: list) -> tuple[list[Reply], float]:
    """One closed loop over ``CONNECTIONS`` connections from this thread.

    Each reply frees its connection's slot and the next request goes
    out at once.  Requests stop being sent when the window closes;
    those in flight are still collected.  Returns the replies and the
    ``time.time()`` the window opened at.
    """
    rngs = [np.random.default_rng(derive(seed, 7, episode, index))
            for index in range(CONNECTIONS)]
    sent = [0] * CONNECTIONS
    inflight: dict[str, tuple] = {}
    replies: list[Reply] = []

    def issue(index: int) -> None:
        rng = rngs[index]
        cls = next(classes[index])
        if cls == "miss":
            kind = "sort"
            params = sort_params(records,
                                 derive(seed, 8, episode, index, sent[index]))
        elif cls == "hit":
            kind = "sort"
            params = hot[int(rng.integers(len(hot)))]
        else:
            kind = "optimize"
            params = {"size_bytes": int(rng.integers(1, 1 << 14)) * MIB,
                      "objective": OBJECTIVES[int(rng.integers(2))]}
        request_id = f"c{index}-{sent[index]}"
        sent[index] += 1
        inflight[request_id] = (cls, kind, params, time.perf_counter())
        conns[index].send(request_id, kind, params)

    conns: list[Connection] = []
    start_unix = time.time()
    start = time.perf_counter()
    try:
        conns = [Connection(socket_path) for _ in range(CONNECTIONS)]
        for index in range(CONNECTIONS):
            for _ in range(IN_FLIGHT):
                issue(index)
        while inflight:
            readable, _, _ = select.select(conns, [], [], REPLY_TIMEOUT_S)
            if not readable:
                raise TimeoutError(f"no reply within {REPLY_TIMEOUT_S} s")
            for conn in readable:
                index = conns.index(conn)
                for response in conn.read():
                    now = time.perf_counter()
                    cls, kind, params, began = inflight.pop(response["id"])
                    replies.append(Reply(cls, kind, params, began, now, response))
                    if now - start < seconds:
                        issue(index)
    except Exception as failure:
        # Every request still owed counts as failed; a load that never
        # got a connection open counts as one failed request.
        now = time.perf_counter()
        owed = list(inflight.values()) or [("connect", "connect", {}, now)]
        for cls, kind, params, began in owed:
            replies.append(Reply(cls, kind, params, began, now, None,
                                 f"{type(failure).__name__}: {failure}"))
    finally:
        for conn in conns:
            conn.close()
    for reply in replies:
        reply.in_window = reply.received - start <= seconds
    return replies, start_unix


def _check(reply: Reply, optimize_session) -> str | None:
    """None when the reply is correct, else why it is not."""
    if reply.error is not None:
        return reply.error
    response = reply.response
    if response["status"] != "ok":
        return f"{response['status']}: {response.get('reason')}"
    result = response["result"]
    if reply.kind == "sort":
        params = reply.params
        if result["records"] != params["records"]:
            return f"{result['records']} records out, {params['records']} in"
        if result["digest"] != sorted_digest(params["workload"],
                                             params["records"], params["seed"]):
            return "digest differs from np.sort"
        return None
    from repro.serve.session import OptimizeJob

    direct = optimize_session.run(OptimizeJob(**reply.params))
    if result["digest"] != direct["digest"]:
        return "optimize rows differ from a direct SortSession run"
    return None


def solo_share(replies: list[Reply]) -> float:
    """Share of executed jobs that ran as a batch of one.

    Replies the dispatcher executed (not answered from the cache) that
    arrive within ``BURST_GAP_S`` of each other left in one batch, so a
    reply with no such neighbour ran alone.
    """
    executed = sorted(r.received for r in replies
                      if r.error is None and r.response["status"] == "ok"
                      and not r.response.get("cached"))
    gaps = [b - a for a, b in zip(executed, executed[1:])]
    alone = sum(1 for before, after in zip([None, *gaps], [*gaps, None])
                if (before is None or before > BURST_GAP_S)
                and (after is None or after > BURST_GAP_S))
    return alone / max(len(executed), 1)


def _overlap(spans: list[dict], start: float, end: float) -> float:
    """Seconds of daemon-side root spans inside ``[start, end]``."""
    busy = 0.0
    for span in spans:
        if span["proc"] != "main" or span["parent"] is not None:
            continue
        begin = span["start_unix"]
        busy += max(0.0, min(end, begin + span["dur_s"]) - max(start, begin))
    return busy


def serve_mixed(root: str, seed: int, seconds: float, sizes: Sizes,
                traced: bool, out_dir: str) -> Outcome:
    # Relative to ``root``, the daemon's working directory and the
    # benchmark's (``run.main`` changes into it): a unix socket path is
    # capped near 108 bytes, which a deep checkout could pass.
    socket_path = os.path.relpath(
        os.path.join(out_dir, f"s{os.getpid()}.sock"), root)
    spans_path = os.path.join(out_dir, f"serve-{os.getpid()}.spans.jsonl")
    records = sizes.serve_keys
    hot = [sort_params(records, derive(seed, 9, h)) for h in range(HOT_JOBS)]
    samples: list[tuple[float, float]] = []
    speed = hostspeed.HostSpeed()
    with open(os.path.join(out_dir, "daemon.log"), "a") as log:
        for _ in range(SETUP_DAEMONS):
            before = speed.sample()
            daemon, seconds_to_ping = _start(root, socket_path, log, None)
            samples.append((seconds_to_ping,
                            hostspeed.scale(before, speed.sample())))
            _stop(daemon, socket_path)
        before = speed.sample()
        daemon, seconds_to_ping = _start(
            root, socket_path, log, spans_path if traced else None)
        samples.append((seconds_to_ping, hostspeed.scale(before, speed.sample())))
        try:
            control = Connection(socket_path)
            try:
                warm = [control.call("sort", params) for params in hot]
                warm.append(control.call("optimize", {"size_bytes": 1 << 30}))
                if any(reply["status"] != "ok" for reply in warm):
                    raise RuntimeError(f"warm-up failed: {warm}")
                # The reference runs between episodes, while the daemon
                # is idle, and scales the episode it brackets.
                before = speed.sample()
                episodes, scales = [], []
                classes = [mix_classes(seed, index)
                           for index in range(CONNECTIONS)]
                for episode in range(EPISODES):
                    episodes.append(_load(socket_path, seed, episode, records,
                                          hot, seconds / EPISODES, classes))
                    after = speed.sample()
                    scales.append(hostspeed.scale(before, after))
                    before = after
                stats = control.call("stats")["result"]
            finally:
                control.close()
        finally:
            _stop(daemon, socket_path)

    from repro.serve.session import SortSession

    replies = [reply for episode, _ in episodes for reply in episode]
    optimize_session = SortSession()
    ops = []
    for episode, (episode_replies, _) in enumerate(episodes):
        for reply in episode_replies:
            error = _check(reply, optimize_session)
            # Only a correct cache-miss sort counts as sorted keys.
            sorted_keys = error is None and reply.cls == "miss"
            ops.append(Op(
                reply.cls, reply.received - reply.sent,
                keys=records if sorted_keys else 0,
                cycles=(payload_cycles(reply.response["result"])
                        if sorted_keys else 0),
                in_window=reply.in_window, error=error, group=episode,
                scale=scales[episode]))
    rejected = sum(v for k, v in stats.items() if k.startswith("rejected_"))
    outcome = Outcome(
        ops, sum(scales) * seconds / EPISODES, samples,
        peak_rss_mb(resource.RUSAGE_CHILDREN),
        sum(payload_cycles(reply["result"]) for reply in warm[:HOT_JOBS]),
        measured_window_s=seconds)
    outcome.notes = {
        f"{cls}_share": sum(r.cls == cls for r in replies) / len(replies)
        for cls in ("miss", "hit", "optimize")
    }
    outcome.notes["rejected"] = rejected
    outcome.notes["reference_ms"] = 1e3 * statistics.median(speed.samples)
    outcome.notes["reference_samples_ms"] = [1e3 * x for x in speed.samples]
    outcome.notes["episode_ops_per_s"] = [
        sum(r.in_window for r in episode) * EPISODES / seconds
        for episode, _ in episodes]
    outcome.notes["episode_solo_share"] = [
        solo_share(episode) for episode, _ in episodes]
    if traced:
        spans = read_jsonl(spans_path)
        for path in sorted(glob.glob(f"{spans_path}.w*.jsonl")):
            spans.extend(read_jsonl(path))
            os.unlink(path)
        os.unlink(spans_path)
        outcome.spans = spans
        timed = [s for s in spans if s["start_unix"] >= episodes[0][1]]
        outcome.layer = layers.layer_metrics(timed, len(ops), [])
        executed = [r.received - r.sent for r in replies
                    if r.error is None and not r.response.get("cached")]
        runs = [s["dur_s"] for s in timed if s["name"] == layers.SESSION_RUN]
        ok = [r for r in replies if r.error is None
              and r.response["status"] == "ok"]
        outcome.layer.update({
            "serve.executor_busy_ratio":
                sum(_overlap(timed, begin, begin + seconds / EPISODES)
                    for _, begin in episodes) / seconds,
            "serve.wait_ms": 1e3 * (
                (statistics.fmean(executed) if executed else 0.0)
                - (statistics.fmean(runs) if runs else 0.0)),
            "serve.cache_hit_ratio":
                sum(bool(r.response.get("cached")) for r in ok) / max(len(ok), 1),
            "serve.rejected": rejected,
        })
    return outcome
