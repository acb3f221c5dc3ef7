#!/usr/bin/env bash
# Documentation lint, run by the CI `docs` job and locally via
#   tools/check_docs.sh
# from the repository root. Six checks:
#   1. Every relative markdown link in README.md, DESIGN.md,
#      EXPERIMENTS.md and docs/*.md resolves to a file in the repo.
#   2. Every src/<subsystem>/ directory is mentioned in DESIGN.md's
#      repository-layout section, so the architecture docs cannot
#      silently fall behind the tree.
#   3. Every tool binary declared in tools/CMakeLists.txt is mentioned
#      in README.md or docs/, so shipped tools cannot go undocumented.
#   4. Every /v1/* endpoint in the DimService route table
#      (src/service/dim_service.cc) appears in docs/service.md, so a
#      new endpoint cannot ship without its reference entry.
#   5. The fault sites registered under src/ (RegisterFaultSite("…"))
#      are exactly the sites in the Site column of docs/robustness.md's
#      fault-site table, so no site ships undocumented and no row
#      outlives its site.
#   6. The committed chaos report (BENCH_robustness.json) sweeps exactly
#      the registered fault sites, durable.* aside (the crash grid arms
#      those), so the report cannot outlive a deleted site or miss a
#      new one.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

fail=0

# --- 1. Relative links resolve -------------------------------------------
# Matches [text](target) and keeps targets that are not URLs/anchors.
doc_files=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md)
for doc in "${doc_files[@]}"; do
  [ -f "$doc" ] || continue
  doc_dir="$(dirname "$doc")"
  # One target per line; strip #fragments.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*|"") continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$doc_dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN LINK: $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done

# --- 2. Every src subsystem is documented in DESIGN.md -------------------
for dir in src/*/; do
  subsystem="${dir%/}"
  if ! grep -q "$subsystem/" DESIGN.md; then
    echo "UNDOCUMENTED SUBSYSTEM: $subsystem/ is not mentioned in DESIGN.md"
    fail=1
  fi
done

# --- 3. Every tools/ binary is documented ---------------------------------
while IFS= read -r tool; do
  # The CLI target is olapdc_cli but ships as `olapdc`.
  [ "$tool" = "olapdc_cli" ] && tool=olapdc
  if ! grep -q "$tool" README.md docs/*.md; then
    echo "UNDOCUMENTED TOOL: $tool is not mentioned in README.md or docs/"
    fail=1
  fi
done < <(grep -oE '^add_executable\([a-z0-9_]+' tools/CMakeLists.txt |
         sed 's/^add_executable(//')

# --- 4. Every /v1/* endpoint is documented in docs/service.md ------------
if [ ! -f docs/service.md ]; then
  echo "MISSING DOC: docs/service.md (the /v1/* endpoint reference)"
  fail=1
else
  while IFS= read -r endpoint; do
    if ! grep -qF "$endpoint" docs/service.md; then
      echo "UNDOCUMENTED ENDPOINT: $endpoint is not in docs/service.md"
      fail=1
    fi
  done < <(grep -oE '"/v1/[a-z_]+"' src/service/dim_service.cc |
           tr -d '"' | sort -u)
fi

# --- 5. Fault-site inventory matches docs/robustness.md ------------------
registered_sites="$(grep -rhoE 'RegisterFaultSite\("[^"]+"\)' src |
  sed -E 's/^RegisterFaultSite\("(.*)"\)$/\1/' | sort -u)"
# The table starts at its "| Site | Forces |" header and ends at the
# first line that is not a table row; its first column holds one or
# more backticked site names.
documented_sites="$(awk '/^\| Site \| Forces \|/ { t = 1; next }
                         t && /^\|/ { print; next }
                         t { exit }' docs/robustness.md |
  cut -d'|' -f2 | grep -oE '`[^`]+`' | tr -d '`' | sort -u)"
if [ -z "$documented_sites" ]; then
  echo "MISSING FAULT-SITE TABLE: no '| Site | Forces |' table in docs/robustness.md"
  fail=1
fi
while IFS= read -r site; do
  [ -n "$site" ] || continue
  echo "UNDOCUMENTED FAULT SITE: $site is registered under src/ but missing from docs/robustness.md"
  fail=1
done < <(comm -23 <(echo "$registered_sites") <(echo "$documented_sites"))
while IFS= read -r site; do
  [ -n "$site" ] || continue
  echo "STALE FAULT SITE: $site is in docs/robustness.md but no code under src/ registers it"
  fail=1
done < <(comm -13 <(echo "$registered_sites") <(echo "$documented_sites"))

# --- 6. The committed chaos report sweeps every fault site ---------------
# The report's "sites" object holds one "<site>": {...} line per site.
report_sites="$(awk '/"sites": \{/ { t = 1; next }
                     t && /^ *\}/ { exit }
                     t { print }' BENCH_robustness.json |
  grep -oE '^ *"[^"]+"' | tr -d ' "' | sort -u)"
swept_sites="$(echo "$registered_sites" | grep -v '^durable\.')"
if [ -z "$report_sites" ]; then
  echo "MISSING CHAOS SITES: no \"sites\" object in BENCH_robustness.json"
  fail=1
fi
while IFS= read -r site; do
  [ -n "$site" ] || continue
  echo "UNSWEPT FAULT SITE: $site is registered under src/ but missing from BENCH_robustness.json"
  fail=1
done < <(comm -23 <(echo "$swept_sites") <(echo "$report_sites"))
while IFS= read -r site; do
  [ -n "$site" ] || continue
  echo "STALE CHAOS SITE: $site is in BENCH_robustness.json but no code under src/ registers it"
  fail=1
done < <(comm -13 <(echo "$swept_sites") <(echo "$report_sites"))

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
