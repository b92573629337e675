"""Fake HDL simulator driven by magic substrings, for offline tests.

compile mode: concatenates source files into the output "binary".
  SYNTAXERR anywhere in a source  -> diagnostic on stderr, exit 1
  SLEEP_MS=<n>                    -> sleep n milliseconds first
run mode: inspects the "binary".
  FUNCFAIL        -> mismatch message, no pass marker, exit 0
  MARKER_BUT_FAIL -> pass marker printed but nonzero exit
  otherwise       -> pass marker, exit 0
The first SLEEP_MS= followed by at least one digit wins; one without digits
is skipped.

This is the rule the bundled ``stubs/sim.awk`` implements, kept as the
reference that ``tests/test_stub_parity.py`` checks it against: same exit
code and the same merged stdout+stderr bytes.  Run it as
``python -I -S sim.py ...`` with both streams on one pipe; stdout is then
block-buffered, so MARKER_BUT_FAIL's stderr line comes first.
"""

import sys
import time

_SLEEP = "SLEEP_MS="


def _sleep_if_asked(text: str) -> None:
    # isdecimal(), not isdigit(): the latter also takes superscripts,
    # which int() rejects.
    at = text.find(_SLEEP)
    while at >= 0:
        start = end = at + len(_SLEEP)
        while end < len(text) and text[end].isdecimal():
            end += 1
        if end > start:
            time.sleep(int(text[start:end]) / 1000.0)
            return
        at = text.find(_SLEEP, at + 1)


def do_compile(argv: list[str]) -> int:
    out = None
    sources = []
    i = 0
    while i < len(argv):
        if argv[i] == "-o":
            out = argv[i + 1]
            i += 2
        else:
            sources.append(argv[i])
            i += 1
    if out is None or not sources:
        print("usage: sim.py compile -o OUT SOURCE...", file=sys.stderr)
        return 2
    blob = []
    for path in sources:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        _sleep_if_asked(text)
        if "SYNTAXERR" in text:
            print("%s: syntax error near SYNTAXERR" % path, file=sys.stderr)
            return 1
        blob.append(text)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(blob))
    return 0


def do_run(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: sim.py run BINARY", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    _sleep_if_asked(text)
    if "MARKER_BUT_FAIL" in text:
        print("ALL_TESTS_PASSED")
        print("simulation aborted after pass message", file=sys.stderr)
        return 1
    if "FUNCFAIL" in text:
        print("MISMATCH at t=40")
        return 0
    print("ALL_TESTS_PASSED")
    return 0


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: sim.py {compile|run} ...", file=sys.stderr)
        return 2
    mode = sys.argv[1]
    if mode == "compile":
        return do_compile(sys.argv[2:])
    if mode == "run":
        return do_run(sys.argv[2:])
    print("unknown mode %r" % mode, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
