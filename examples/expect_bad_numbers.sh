#!/bin/sh
# Malformed numbers, unknown flags and shapes the checker cannot judge on
# the model_explorer command line must exit 64 with a message naming the
# bad token or the limit.
#
#   sh expect_bad_numbers.sh path/to/model_explorer
bin="$1"
fails=0
# expect_rejected TEXT ARGS...: exit 64 with TEXT in the message.
expect_rejected() {
    text="$1"
    shift
    msg=$("$bin" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 64 ]; then
        echo "FAIL: exit $rc (want 64) for: $*"
        fails=1
        return
    fi
    case "$msg" in
        *"$text"*) echo "ok: $*: $msg" ;;
        *) echo "FAIL: message does not name '$text': $msg"; fails=1 ;;
    esac
}
expect_rejected "'1e6'" --max-states 1e6 bloom 1 1 1
expect_rejected "'-1'" --max-states -1 bloom 1 1 1
expect_rejected "'two'" bloom two
expect_rejected "'1x'" faulty stale_read 1x
expect_rejected "'--threads'" --threads 4 bloom 1 1 1
# Shapes: at most 62 ops per history, 64 processes, unary k in [2, 64],
# 32767 faults per process, 16 ABD servers, ABD stamps below 32768.
expect_rejected "[2, 64]" unary 0
expect_rejected "[2, 64]" unary 1 1
expect_rejected "[2, 64]" unary 65 1
expect_rejected "limit of 32767" faulty stale_read 1 1 32768
expect_rejected "limit of 32767" faulty lost_write 1 1 65535
expect_rejected "limit of 62" bloom 8200 1 1
expect_rejected "limit of 62" bloom 1 70 1
expect_rejected "limit of 64" race packed 1 63 0
expect_rejected "limit of 16" abd mw 2 1 2 1 40 1
expect_rejected "stamp domain" abd mw 30 2 1 1
exit "$fails"
