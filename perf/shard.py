"""The benchmark's launcher around ``repro.rt.server.serve_shard``.

``python -m perf.shard --data-dir DIR`` serves one metadata shard on an
ephemeral port, prints ``READY port=<n>`` and runs until a ctl shutdown.
``--profile FILE`` profiles the shard with ``cProfile`` and dumps the
statistics to FILE on exit, so the traced pass can merge the server's
time with the driver's.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import typing as _t

#: The shard ``rt-commit`` runs against; ``perf.rtcell`` opens the same
#: sparse volume file from the client side.
VOLUME_SIZE = 1024 * 1024 * 1024
DAEMONS = 4


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--profile", default=None)
    args = parser.parse_args(argv)

    from repro.rt.server import ShardConfig, serve_shard

    config = ShardConfig(
        shard=0,
        shards=1,
        data_dir=args.data_dir,
        port=0,
        volume_size=VOLUME_SIZE,
        num_daemons=DAEMONS,
    )

    def ready(port: int) -> None:
        print(f"READY port={port}", flush=True)

    profile = cProfile.Profile() if args.profile else None
    if profile is not None:
        profile.enable()
    try:
        asyncio.run(serve_shard(config, ready=ready))
    finally:
        if profile is not None:
            profile.disable()
            profile.dump_stats(args.profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
