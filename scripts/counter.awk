# A metric's value in one benchmark/run.sh output: from its JSON line, else
# from its table (end-to-end metrics are only there). Prints nothing for a
# metric the run does not report.
#
#   awk -v name=<metric> -f scripts/counter.awk <run output>
$1 == name && $2 ~ /^[-0-9.eE+]+$/ { table = $2 }
/^\{/ && match($0, "\"" name "\":\\{\"unit\":\"[^\"]*\",\"value\":[-0-9.eE+]+") {
    json = substr($0, RSTART, RLENGTH)
    sub(/.*"value":/, "", json)
}
END { print json != "" ? json : table }
