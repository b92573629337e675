# Fake HDL simulator driven by magic substrings, for offline tests.
#
#   awk -f sim.awk compile -o OUT SOURCE...
#   awk -f sim.awk run BINARY
#
# compile mode: concatenates the sources into the output "binary".
#   SYNTAXERR anywhere in a source  -> diagnostic on stderr, exit 1
#   SLEEP_MS=<n>                    -> sleep n milliseconds first
# run mode: inspects the "binary".
#   FUNCFAIL        -> mismatch message, no pass marker, exit 0
#   MARKER_BUT_FAIL -> pass marker printed but nonzero exit
#   otherwise       -> pass marker, exit 0
# The first SLEEP_MS= followed by at least one ASCII digit wins; one
# without digits is skipped.  Sources are checked in argument order, each
# one's sleep before its SYNTAXERR; a failed compile writes no output.
#
# Everything happens in BEGIN, so awk never reads an argument as an input
# file or a var=value assignment.  Files are read a line at a time:
# neither the markers nor a digit run hold a newline, so matching line by
# line is matching the whole text, in time linear in its size.

BEGIN {
    if (ARGC < 2)
        usage("{compile|run} ...")
    if (ARGV[1] == "compile")
        exit do_compile()
    if (ARGV[1] == "run")
        exit do_run()
    printf "unknown mode '%s'\n", ARGV[1] > "/dev/stderr"
    exit 2
}

function usage(args) {
    print "usage: sim.awk " args > "/dev/stderr"
    exit 2
}

# Reads one file, setting sleep_ms to its first SLEEP_MS= digit run ("" if
# none) and seen[m] for each marker m it holds.  With keep set, its lines
# are appended to blob[1..nblob].
function scan(path, keep,    line, status) {
    sleep_ms = ""
    split("", seen)
    while ((status = (getline line < path)) > 0) {
        if (sleep_ms == "" && index(line, "SLEEP_MS=") \
            && match(line, /SLEEP_MS=[0-9]+/))
            sleep_ms = substr(line, RSTART + 9, RLENGTH - 9)
        if (index(line, "SYNTAXERR"))
            seen["SYNTAXERR"] = 1
        if (index(line, "FUNCFAIL"))
            seen["FUNCFAIL"] = 1
        if (index(line, "MARKER_BUT_FAIL"))
            seen["MARKER_BUT_FAIL"] = 1
        if (keep)
            blob[++nblob] = line
    }
    close(path)
    if (status < 0) {
        print "sim.awk: cannot read " path > "/dev/stderr"
        exit 2
    }
}

# Sleeps for a digit string of milliseconds, built into seconds as text so
# no digit count can overflow a number.
function sleep_for(ms) {
    sub(/^0+/, "", ms)
    if (ms == "")
        return
    while (length(ms) < 4)
        ms = "0" ms
    system("sleep " substr(ms, 1, length(ms) - 3) "." substr(ms, length(ms) - 2))
}

function do_compile(    i, out, nsrc, src) {
    for (i = 2; i < ARGC; i++) {
        if (ARGV[i] == "-o") {
            if (i + 1 == ARGC)
                usage("compile -o OUT SOURCE...")
            out = ARGV[++i]
        } else {
            src[++nsrc] = ARGV[i]
        }
    }
    if (out == "" || !nsrc)
        usage("compile -o OUT SOURCE...")
    for (i = 1; i <= nsrc; i++) {
        scan(src[i], 1)
        sleep_for(sleep_ms)
        if ("SYNTAXERR" in seen) {
            print src[i] ": syntax error near SYNTAXERR" > "/dev/stderr"
            return 1
        }
    }
    printf "" > out
    for (i = 1; i <= nblob; i++)
        print blob[i] > out
    close(out)
    return 0
}

function do_run() {
    if (ARGC != 3)
        usage("run BINARY")
    scan(ARGV[2], 0)
    sleep_for(sleep_ms)
    if ("MARKER_BUT_FAIL" in seen) {
        # The Python stub this replaces wrote stderr at once and its piped
        # stdout at exit; a merged log reads in that order.
        print "simulation aborted after pass message" > "/dev/stderr"
        fflush("/dev/stderr")
        print "ALL_TESTS_PASSED"
        return 1
    }
    if ("FUNCFAIL" in seen) {
        print "MISMATCH at t=40"
        return 0
    }
    print "ALL_TESTS_PASSED"
    return 0
}
