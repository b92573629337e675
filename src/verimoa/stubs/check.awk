# Fake intermediate-code checker: rejects sources containing CHECKFAIL.
#
#   awk -f check.awk SOURCE
#
# Everything happens in BEGIN, so awk never reads the argument as an input
# file or a var=value assignment.

BEGIN {
    if (ARGC != 2) {
        print "usage: check.awk SOURCE" > "/dev/stderr"
        exit 2
    }
    while ((status = (getline line < ARGV[1])) > 0)
        if (index(line, "CHECKFAIL")) {
            print ARGV[1] ":1: error: CHECKFAIL marker present" > "/dev/stderr"
            exit 1
        }
    if (status < 0) {
        print "check.awk: cannot read " ARGV[1] > "/dev/stderr"
        exit 2
    }
    exit 0
}
