"""Read a GDSII file back through the lotuskit Python API and print its census.

The library has no read-back command yet, so this short script is the
user-side operation the benchmark times:

    python3 lotusbench/readback.py MASK.gds

It parses the stream with ``read_gdsii``, flattens the top cell with
``MaskGeometry.expand`` and prints ``bytes=`` and ``polygons=``.
"""

from __future__ import annotations

import sys

from lotuskit import maskio


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: readback.py FILE.gds", file=sys.stderr)
        return 2
    with open(argv[0], "rb") as handle:
        data = handle.read()
    # Looked up through the module on each call, so the tracer's wrappers
    # on ``lotuskit.maskio`` see this call.
    geometry = maskio.read_gdsii(data)
    polygons = geometry.expand()
    print(f"bytes={len(data)}")
    print(f"polygons={len(polygons)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
