"""Server launcher: one ``IngestService`` in its own process.

Started by ``run.py`` as ``python benchmarks/e2e/server.py --config
JSON [--checkpoint-dir DIR] [--trace DIR]`` with ``src`` on
``PYTHONPATH``. It prints ``{"port": N}`` on stdout once it listens and
stops gracefully on SIGTERM or SIGINT through event-loop signal
handlers, closing the tenant's shard workers before it exits.

With ``--trace DIR`` it wraps the layers listed in ``layers.py`` before
the service starts, and on every SIGUSR1 writes the numbers recorded
since the previous SIGUSR1 to ``DIR/layers-<n>.json``. Process-router
tenants also get span tracing at 1-in-1 sampling, so the shard workers
ship their ``engine.batch`` spans back on their acks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from pathlib import Path
from typing import Optional

from repro import obs
from repro.obs import trace
from repro.serve import IngestService, TenantConfig

from layers import Recorder

_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGUSR1)


def _forked_child(recorder: "Optional[Recorder]") -> None:
    """Give a forked shard worker default signal handling.

    A fork copies the loop's handlers and its wakeup fd: without this a
    worker would ignore SIGTERM and wake the server's loop instead.
    """
    signal.set_wakeup_fd(-1)
    for sig in _SIGNALS:
        signal.signal(sig, signal.SIG_DFL)
    if recorder is not None:
        recorder.on = False


def _dump(recorder: Recorder, directory: Path, count: "list[int]") -> None:
    count[0] += 1
    final = directory / f"layers-{count[0]}.json"
    tmp = directory / f".{final.name}.tmp"
    tmp.write_text(json.dumps(recorder.snapshot()))
    os.replace(tmp, final)


async def _until_orphaned(stop: asyncio.Event) -> None:
    """Stop when the load generator dies without stopping this server."""
    parent = os.getppid()
    while os.getppid() == parent:
        await asyncio.sleep(1.0)
    stop.set()


async def serve(config: TenantConfig, checkpoint_dir: "Optional[str]",
                recorder: "Optional[Recorder]",
                trace_dir: "Optional[Path]") -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    orphan_watch = asyncio.create_task(_until_orphaned(stop))
    if recorder is not None and trace_dir is not None:
        dumps = [0]
        loop.add_signal_handler(signal.SIGUSR1, _dump, recorder, trace_dir,
                                dumps)
    service = IngestService(default_config=config,
                            checkpoint_dir=checkpoint_dir)
    await service.start()
    try:
        print(json.dumps({"port": service.port}), flush=True)
        # Nobody reads stdout after the port line; a full pipe must
        # never block the server or a worker.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        await stop.wait()
    finally:
        orphan_watch.cancel()
        await service.stop(final_checkpoint=False)


def main(argv: "Optional[list[str]]" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True,
                        help="TenantConfig.to_meta() as JSON")
    parser.add_argument("--checkpoint-dir", default=None)
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="wrap the layers; SIGUSR1 dumps to DIR")
    args = parser.parse_args(argv)
    config = TenantConfig.from_meta(json.loads(args.config))
    recorder: "Optional[Recorder]" = None
    if args.trace is not None:
        recorder = Recorder()
        recorder.install()
        if config.router == "process":
            obs.enable()
            trace.configure(sample_every=1)
    os.register_at_fork(after_in_child=lambda: _forked_child(recorder))
    trace_dir = Path(args.trace) if args.trace is not None else None
    asyncio.run(serve(config, args.checkpoint_dir, recorder, trace_dir))


if __name__ == "__main__":
    sys.exit(main())
