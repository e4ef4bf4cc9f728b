"""Serve the program's HTTP service with the benchmark's probes installed.

The traced ``service`` phase runs this instead of ``repro serve``: it wraps
every probe target, then builds and serves ``CleaningService`` exactly as
the CLI does.  SIGINT stops it; the spans are written to ``--spans`` on the
way out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from spans import SpanRecorder, install


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    recorder = SpanRecorder()
    install(recorder)
    from repro.service import CleaningService

    service = CleaningService(args.root, port=0)
    print(f"SERVICE LISTENING {service.url}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        recorder.dump(Path(args.spans))


if __name__ == "__main__":
    sys.exit(main())
