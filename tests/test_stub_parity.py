"""The awk stubs against the Python rule they replaced.

For the same files and arguments, ``stubs/sim.awk`` and ``stubs/check.awk``
must exit as ``reference_stubs/sim.py`` and ``check.py`` do and print the
same merged stdout+stderr bytes; usage lines differ only in the script
name.  Compiled binaries may differ in bytes, so each implementation runs
its own, as a simulator would.
"""

import os
import shlex
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verimoa.simulator import stub_script_cmd

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_stubs")


def _run(argv: list[str], cwd: str) -> tuple[int, bytes]:
    proc = subprocess.run(
        argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=60
    )
    return proc.returncode, proc.stdout


def run_awk(stub: str, args: list[str], cwd: str) -> tuple[int, bytes]:
    return _run([*shlex.split(stub_script_cmd(stub + ".awk")), *args], cwd)


def run_reference(stub: str, args: list[str], cwd: str) -> tuple[int, bytes]:
    script = os.path.join(REFERENCE, stub + ".py")
    return _run([sys.executable, "-I", "-S", script, *args], cwd)


def assert_same_compile_and_run(cwd: str, names: list[str]) -> None:
    """Compile names with each implementation, then run each binary, and
    run each implementation on the first source as if it were a binary."""
    results = {}
    for impl, run in (("awk", run_awk), ("py", run_reference)):
        out = impl + ".bin"
        compiled = run("sim", ["compile", "-o", out, *names], cwd)
        wrote = os.path.exists(os.path.join(cwd, out))
        ran = run("sim", ["run", out], cwd) if wrote else None
        raw = run("sim", ["run", names[0]], cwd)
        results[impl] = (compiled, wrote, ran, raw)
    assert results["awk"] == results["py"]
    (code, _), wrote, _, _ = results["awk"]
    assert wrote == (code == 0)  # a failed compile writes no output


def write_sources(cwd: str, contents: list[bytes]) -> list[str]:
    names = ["s%d.v" % i for i in range(len(contents))]
    if len(names) > 1:
        names[1] = "ünï.v"  # diagnostics quote non-ASCII names as given
    for name, data in zip(names, contents):
        with open(os.path.join(cwd, name), "wb") as fh:
            fh.write(data)
    return names


# Markers, their halves, and the bytes that make text hard to handle: NUL,
# CR and CRLF, invalid UTF-8, non-ASCII text.  The only digit is 0, so a
# SLEEP_MS never sleeps.
FRAGMENTS = [
    b"SYNTAXERR", b"SYNTAX", b"ERR", b"FUNCFAIL", b"FUNC", b"FAIL",
    b"MARKER_BUT_FAIL", b"MARKER_BUT_", b"CHECKFAIL", b"CHECK",
    b"SLEEP_MS=", b"SLEEP_MS", b"0", b"\x00", b"\r", b"\n", b"\r\n",
    b"\xff", b"\xe2\x82", b"\xed\xa0", "é∀".encode(), b" module m; endmodule ",
]

source_bytes = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS),
        st.binary(max_size=6).map(lambda b: b.translate(None, b"123456789")),
        st.text(max_size=6)
        .map(lambda t: "".join(c for c in t if not c.isdecimal() or c == "0"))
        .map(str.encode),
    ),
    max_size=24,
).map(b"".join)


@settings(max_examples=40, deadline=None)
@given(st.lists(source_bytes, min_size=1, max_size=3))
def test_sim_matches_reference(contents):
    with tempfile.TemporaryDirectory() as cwd:
        assert_same_compile_and_run(cwd, write_sources(cwd, contents))


@settings(max_examples=40, deadline=None)
@given(source_bytes)
def test_check_matches_reference(content):
    with tempfile.TemporaryDirectory() as cwd:
        with open(os.path.join(cwd, "candidate.cpp"), "wb") as fh:
            fh.write(content)
        args = ["candidate.cpp"]
        assert run_awk("check", args, cwd) == run_reference("check", args, cwd)


@pytest.mark.parametrize(
    "contents",
    [
        [b"module m;\nSYNTAX\x00ERR\n"],
        [b"x MARKER_BUT_FAIL\r\n"],
        [b"MARKER_BUT\r\n_FAIL FUNC\rFAIL"],
        [b"SLEEP_MS=x SLEEP_MS=0\x00 FUNCFAIL\xff"],
        [b"SLEEP_MS=0SYNTAXERR"],
        [b"\xff\xfe\xe2\x82 caf\xc3\xa9 SYNTAXER", b"R FUNCFAIL"],
        [b"SYNTAX", b"ERR", b"MARKER_BUT_", b"FAIL"],
        [b"ok", b"SYNTAXERR one", b"SYNTAXERR two"],
        [b"", b"FUNCFAIL", b""],
        [b"a\x00b" * 1000 + b"MARKER_BUT_FAIL", b"no newline at end"],
    ],
    ids=[
        "nul-splits-marker", "crlf", "markers-split-across-lines",
        "sleep-zero-nul-invalid-utf8", "sleep-then-syntaxerr",
        "marker-split-across-files", "halves-in-four-files",
        "first-failing-source-named", "empty-sources", "long-nul-line",
    ],
)
def test_sim_matches_reference_on_hard_inputs(tmp_path, contents):
    assert_same_compile_and_run(str(tmp_path), write_sources(str(tmp_path), contents))


@pytest.mark.parametrize(
    "stub, args",
    [
        ("sim", []),
        ("sim", ["simulate"]),
        ("sim", ["compile", "s0.v"]),
        ("sim", ["compile", "-o", "out.bin"]),
        ("sim", ["run"]),
        ("sim", ["run", "a", "b"]),
        ("check", []),
        ("check", ["s0.v", "s0.v"]),
    ],
)
def test_usage_errors_match_reference_but_for_the_name(tmp_path, stub, args):
    (tmp_path / "s0.v").write_text("module m; endmodule\n")
    code, output = run_awk(stub, args, str(tmp_path))
    ref_code, ref_output = run_reference(stub, args, str(tmp_path))
    assert code == ref_code == 2
    assert output == ref_output.replace(b"%s.py" % stub.encode(), b"%s.awk" % stub.encode())


def test_dangling_output_flag_is_a_usage_error(tmp_path):
    # The Python stub crashed on this with a traceback (exit 1).
    (tmp_path / "s0.v").write_text("module m; endmodule\n")
    assert run_awk("sim", ["compile", "s0.v", "-o"], str(tmp_path)) == (
        2, b"usage: sim.awk compile -o OUT SOURCE...\n"
    )


def test_each_sources_sleep_comes_before_its_syntax_check(tmp_path):
    names = write_sources(str(tmp_path), [
        b"SLEEP_MS=200\nSLEEP_MS=5000", b"SYNTAXERR SLEEP_MS=x\nSLEEP_MS=200", b"SLEEP_MS=5000",
    ])
    started = time.monotonic()
    result = run_awk("sim", ["compile", "-o", "out.bin", *names], str(tmp_path))
    assert 0.4 <= time.monotonic() - started < 3.0
    assert result == (1, "ünï.v: syntax error near SYNTAXERR\n".encode())
    assert not (tmp_path / "out.bin").exists()
