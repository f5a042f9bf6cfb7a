#!/bin/sh
# Malformed numbers on the model_explorer command line must exit 64 with a
# message naming the bad token.
#
#   sh expect_bad_numbers.sh path/to/model_explorer
bin="$1"
fails=0
expect_usage_error() {
    token="$1"
    shift
    msg=$("$bin" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 64 ]; then
        echo "FAIL: exit $rc (want 64) for: $*"
        fails=1
        return
    fi
    case "$msg" in
        *"'$token'"*) echo "ok: $*: $msg" ;;
        *) echo "FAIL: message does not name '$token': $msg"; fails=1 ;;
    esac
}
expect_usage_error 1e6 --max-states 1e6 bloom 1 1 1
expect_usage_error -1 --threads -1 bloom 1 1 1
expect_usage_error two bloom two
expect_usage_error 1x faulty stale_read 1x
exit "$fails"
