# Sourced by the smoke scripts that kill a run mid-flight.
#
# await_records FILE N PID returns once FILE holds more than N lines (for a
# journal: N records past its header line), once PID has exited, or after
# 60 s, whichever comes first. Killing on progress rather than on a timer
# lands mid-run on a host of any speed; the caller kills, then checks that
# the run had not already finished (a resume from a complete journal is not
# the drill).
await_records() {
  local file="$1" records="$2" pid="$3" deadline=$((SECONDS + 60)) lines
  while kill -0 "$pid" 2> /dev/null && [ "$SECONDS" -lt "$deadline" ]; do
    lines=0
    [ -f "$file" ] && lines=$(wc -l < "$file")
    [ "$lines" -gt "$records" ] && return 0
    sleep 0.01
  done
}
