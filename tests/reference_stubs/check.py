"""Fake intermediate-code checker: rejects sources containing CHECKFAIL.

The reference for the bundled ``stubs/check.awk``; see ``sim.py`` here.
"""

import sys


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: check.py SOURCE", file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    if "CHECKFAIL" in text:
        print("%s:1: error: CHECKFAIL marker present" % sys.argv[1], file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
