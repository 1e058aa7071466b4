# Sourced by the scripts that compare `hvc check --json` reports across
# execution modes.
#
# summary REPORT prints one "property verdict total" line per property of a
# --json report. The total is schemas + pruned + cut + unknown_schemas for a
# property that holds, and "-" for any other verdict: which schemas a run
# solves, prunes or cuts depends on its learning and lease interleaving, but
# a holding property accounts for every schema of its space either way.
summary() {
  awk '
    function field(name,   m) {
      if (!match($0, "\"" name "\": \"?[^\",]*")) return ""
      m = substr($0, RSTART, RLENGTH)
      sub(/^"[^"]*": "?/, "", m)
      return m
    }
    /"property": / {
      total = "-"
      if (field("verdict") == "holds") {
        total = field("schemas") + field("pruned") + field("cut") + field("unknown_schemas")
      }
      print field("property"), field("verdict"), total
    }' "$1"
}
