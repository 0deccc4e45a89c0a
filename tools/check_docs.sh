#!/bin/sh
# Documentation consistency gate (CI: the "docs link-check" step).
#
# Eight checks, all grep-based so the gate needs nothing beyond POSIX sh:
#
#   1. Every relative markdown link in README.md and docs/*.md must point
#      at a file or directory that exists (anchors and external URLs are
#      skipped). Catches renames that orphan links.
#
#   2. docs/PROTOCOL.md is the normative wire spec: every protocol
#      constant, message type, and wire code declared in
#      src/net/protocol.h must be named in it. Catches protocol changes
#      that skip the spec.
#
#   3. The OPERATIONS.md counter glossary names every sql::ExecStats
#      field declared in src/sql/executor.h, and its executor table names
#      no counter that struct no longer declares. Catches new counters
#      that skip the glossary and stale rows for deleted ones.
#
#   4. The OPERATIONS.md service table names every service::PlanCache::Stats
#      field declared in src/service/plan_cache.h as `cache.<field>`, and
#      no cache.<field> that struct no longer declares; likewise every
#      scalar service::ServiceStats member of src/service/query_service.h
#      (the uint64_t counters, total_seconds and the latency summary) by
#      its bare name, and no bare name that struct no longer declares.
#      Same purpose as 3.
#
#   5. The ARCHITECTURE.md access-path table names every sql::AccessPath
#      kind declared in src/sql/optimizer.h, and no kind that enum no
#      longer declares. Same purpose as 3.
#
#   6. Every `:command` examples/lpath_shell.cpp dispatches (`input ==
#      ":x"` or `StartsWith(input, ":x ")`) is named in the README's shell
#      paragraph and in the shell's .help text, and the README names no
#      `:command` the shell no longer handles. Same purpose as 3.
#
#   7. The README's image section ("## Persistent relation images" up to
#      the next "## " heading) names the current image format as
#      "Format v<kImageFormatVersion>" (src/storage/image.h) and its
#      section table as "<kSectionCount>-entry section table"
#      (src/storage/image.cc). Catches format bumps that skip the README.
#
#   8. The OPERATIONS.md catalog table names every db::CorpusInfo field
#      declared in src/db/database.h, and no field that struct no longer
#      declares. Same purpose as 3.
#
# Exits nonzero listing every violation. Run from the repository root.
set -u

fail=0

say() { printf '%s\n' "$*"; }

# --- 1. relative links resolve ------------------------------------------

for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # Pull out `](target)` link targets, one per line.
  links=$(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target=${link%%#*}            # strip in-page anchor
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      say "BROKEN LINK: $doc -> $link"
      fail=1
    fi
  done
done

# --- 2. PROTOCOL.md names every protocol.h identifier -------------------

header=src/net/protocol.h
spec=docs/PROTOCOL.md
if [ -f "$header" ] && [ -f "$spec" ]; then
  # Constants (kCamelCase constexpr), enum types, and enumerators. The
  # enumerator grep keys on the "= <value>," initializer style both enums
  # use; helper-local names never match these shapes.
  idents=$(
    grep -o 'constexpr [a-z0-9_]* k[A-Za-z0-9]*' "$header" | awk '{print $3}'
    grep -o 'enum class [A-Za-z]*' "$header" | awk '{print $3}'
    grep -o '^  k[A-Za-z0-9]* = [0-9]*' "$header" | awk '{print $1}'
  )
  for ident in $(printf '%s\n' "$idents" | sort -u); do
    if ! grep -q "$ident" "$spec"; then
      say "UNDOCUMENTED: $header declares $ident but $spec never names it"
      fail=1
    fi
  done
elif [ -f "$header" ]; then
  say "MISSING: $spec (normative spec for $header)"
  fail=1
fi

# --- 3. OPERATIONS.md glossary matches sql::ExecStats -------------------

stats_header=src/sql/executor.h
ops=docs/OPERATIONS.md
if [ -f "$stats_header" ] && [ -f "$ops" ]; then
  # Counter fields: the "  uint64_t name = 0;" members of the struct.
  fields=$(awk '/^struct ExecStats \{/,/^};/' "$stats_header" |
           grep -o '^  uint64_t [a-z_]*' | awk '{print $2}')
  # First-column names of the glossary's executor table: from its
  # "### Executor (`sql::ExecStats`" heading to the next heading.
  rows=$(awk '/^### Executor \(`sql::ExecStats`/ {on=1; next}
              /^#/ {on=0}
              on && /^\| `/ {print}' "$ops" |
         cut -d'|' -f2 | grep -o '`[a-z_]*`' | tr -d '`')
  if [ -z "$fields" ] || [ -z "$rows" ]; then
    say "MISSING: ExecStats fields in $stats_header or their glossary table in $ops"
    fail=1
  fi
  for field in $fields; do
    if ! printf '%s\n' "$rows" | grep -qx "$field"; then
      say "UNDOCUMENTED: ExecStats::$field has no row in the $ops glossary"
      fail=1
    fi
  done
  for row in $rows; do
    if ! printf '%s\n' "$fields" | grep -qx "$row"; then
      say "STALE: $ops glossary names $row, which ExecStats does not declare"
      fail=1
    fi
  done
fi

# --- 4. OPERATIONS.md service table matches PlanCache::Stats and ---------
# ---    ServiceStats --------------------------------------------------------

cache_header=src/service/plan_cache.h
if [ -f "$cache_header" ] && [ -f "$ops" ]; then
  # Fields: the "    uint64_t name = 0;" / "    size_t name = 0;" members
  # of the nested struct.
  fields=$(awk '/^  struct Stats \{/,/^  \};/' "$cache_header" |
           grep -o '^    [a-z0-9_]* [a-z_]* =' | awk '{print $2}')
  # Every cache.<field> the service table names: from its
  # "### Service (`service::ServiceStats`" heading to the next heading.
  rows=$(awk '/^### Service \(`service::ServiceStats`/ {on=1; next}
              /^#/ {on=0}
              on && /^\| `/ {print}' "$ops" |
         grep -o 'cache\.[a-z_]*' | sed 's/^cache\.//' | sort -u)
  if [ -z "$fields" ] || [ -z "$rows" ]; then
    say "MISSING: PlanCache::Stats fields in $cache_header or cache.* rows in $ops"
    fail=1
  fi
  for field in $fields; do
    if ! printf '%s\n' "$rows" | grep -qx "$field"; then
      say "UNDOCUMENTED: PlanCache::Stats::$field has no cache.$field row in $ops"
      fail=1
    fi
  done
  for row in $rows; do
    if ! printf '%s\n' "$fields" | grep -qx "$row"; then
      say "STALE: $ops names cache.$row, which PlanCache::Stats does not declare"
      fail=1
    fi
  done
fi

service_header=src/service/query_service.h
if [ -f "$service_header" ] && [ -f "$ops" ]; then
  # Scalar members: everything but the nested cache/exec structs, which
  # the checks above cover.
  fields=$(awk '/^struct ServiceStats \{/,/^};/' "$service_header" |
           grep -oE '^  (uint64_t|double|LatencySummary) [a-z_]+' |
           awk '{print $2}')
  # Bare `name` cells (no cache. prefix) in the service table's first column.
  rows=$(awk '/^### Service \(`service::ServiceStats`/ {on=1; next}
              /^#/ {on=0}
              on && /^\| `/ {print}' "$ops" |
         cut -d'|' -f2 | grep -o '`[a-z_]*`' | tr -d '`' | sort -u)
  if [ -z "$fields" ] || [ -z "$rows" ]; then
    say "MISSING: ServiceStats members in $service_header or their rows in $ops"
    fail=1
  fi
  for field in $fields; do
    if ! printf '%s\n' "$rows" | grep -qx "$field"; then
      say "UNDOCUMENTED: ServiceStats::$field has no row in the $ops service table"
      fail=1
    fi
  done
  for row in $rows; do
    if ! printf '%s\n' "$fields" | grep -qx "$row"; then
      say "STALE: $ops service table names $row, which ServiceStats does not declare"
      fail=1
    fi
  done
fi

# --- 5. ARCHITECTURE.md access-path table matches sql::AccessPath -------

path_header=src/sql/optimizer.h
arch=docs/ARCHITECTURE.md
if [ -f "$path_header" ] && [ -f "$arch" ]; then
  # Kinds: the "    kName," enumerators of AccessPath's nested Kind enum.
  kinds=$(awk '/^struct AccessPath \{/ {on=1}
               on && /^  enum class Kind/ {k=1; next}
               k && /^  \};/ {exit}
               k' "$path_header" |
          grep -o '^    k[A-Za-z]*' | awk '{print $1}')
  # First-column names of the table under the "### Access paths
  # (`sql::AccessPath`)" heading, up to the next heading.
  rows=$(awk '/^### Access paths \(`sql::AccessPath`\)/ {on=1; next}
              /^#/ {on=0}
              on && /^\| `/ {print}' "$arch" |
         cut -d'|' -f2 | grep -o '`k[A-Za-z]*`' | tr -d '`')
  if [ -z "$kinds" ] || [ -z "$rows" ]; then
    say "MISSING: AccessPath kinds in $path_header or their table in $arch"
    fail=1
  fi
  for kind in $kinds; do
    if ! printf '%s\n' "$rows" | grep -qx "$kind"; then
      say "UNDOCUMENTED: AccessPath::Kind::$kind has no row in the $arch table"
      fail=1
    fi
  done
  for row in $rows; do
    if ! printf '%s\n' "$kinds" | grep -qx "$row"; then
      say "STALE: $arch names $row, which AccessPath::Kind does not declare"
      fail=1
    fi
  done
fi

# --- 6. shell :commands match the README and .help ----------------------

shell=examples/lpath_shell.cpp
if [ -f "$shell" ] && [ -f README.md ]; then
  cmds=$(grep -oE 'input == ":[a-z]+"|StartsWith\(input, ":[a-z]+ "\)' \
           "$shell" | grep -oE ':[a-z]+' | sort -u)
  # The .help text: the "  :name ..." lines of PrintHelp().
  help=$(awk '/^void PrintHelp\(\)/,/^}/' "$shell" |
         grep -oE '"  :[a-z]+' | sed 's/^"  //' | sort -u)
  # The shell paragraph: from "`examples/lpath_shell` fronts" to the
  # next blank line.
  para=$(awk '/^`examples\/lpath_shell` fronts/ {on=1}
              on && /^$/ {exit}
              on' README.md | grep -oE '`:[a-z]+' | tr -d '`' | sort -u)
  named=$(grep -oE '`:[a-z]+' README.md | tr -d '`' | sort -u)
  if [ -z "$cmds" ] || [ -z "$help" ] || [ -z "$para" ]; then
    say "MISSING: :commands in $shell, its .help text or the README shell paragraph"
    fail=1
  fi
  for cmd in $cmds; do
    if ! printf '%s\n' "$para" | grep -qx "$cmd"; then
      say "UNDOCUMENTED: $shell handles $cmd but the README shell paragraph never names it"
      fail=1
    fi
    if ! printf '%s\n' "$help" | grep -qx "$cmd"; then
      say "UNDOCUMENTED: $shell handles $cmd but its .help text never names it"
      fail=1
    fi
  done
  for cmd in $named; do
    if ! printf '%s\n' "$cmds" | grep -qx "$cmd"; then
      say "STALE: README.md names $cmd, which $shell does not handle"
      fail=1
    fi
  done
fi

# --- 7. README image section names the current format ------------------

image_header=src/storage/image.h
image_source=src/storage/image.cc
if [ -f "$image_header" ] && [ -f "$image_source" ] && [ -f README.md ]; then
  version=$(grep -o 'kImageFormatVersion = [0-9]*' "$image_header" |
            awk '{print $3}')
  sections=$(grep -o 'kSectionCount = [0-9]*' "$image_source" |
             awk '{print $3}')
  section=$(awk '/^## Persistent relation images/ {on=1; next}
                 on && /^## / {exit}
                 on' README.md)
  if [ -z "$version" ] || [ -z "$sections" ] || [ -z "$section" ]; then
    say "MISSING: kImageFormatVersion in $image_header, kSectionCount in $image_source or the README image section"
    fail=1
  else
    if ! printf '%s\n' "$section" | grep -qE "Format v$version([^0-9]|\$)"; then
      say "STALE: the README image section does not name Format v$version ($image_header)"
      fail=1
    fi
    if ! printf '%s\n' "$section" | grep -q "$sections-entry section table"; then
      say "STALE: the README image section does not name the $sections-entry section table ($image_source)"
      fail=1
    fi
  fi
fi

# --- 8. OPERATIONS.md catalog table matches db::CorpusInfo -------------

db_header=src/db/database.h
if [ -f "$db_header" ] && [ -f "$ops" ]; then
  # Fields: the "  <type> name = ...;" / "  <type> name;" members.
  fields=$(awk '/^struct CorpusInfo \{/,/^};/' "$db_header" |
           grep -oE '^  [A-Za-z0-9_:]+ [a-z_]+( =|;)' | awk '{print $2}' |
           tr -d ';')
  # First-column names of the table under the "### Catalog
  # (`db::CorpusInfo`" heading, up to the next heading.
  rows=$(awk '/^### Catalog \(`db::CorpusInfo`/ {on=1; next}
              /^#/ {on=0}
              on && /^\| `/ {print}' "$ops" |
         cut -d'|' -f2 | grep -o '`[a-z_]*`' | tr -d '`' | sort -u)
  if [ -z "$fields" ] || [ -z "$rows" ]; then
    say "MISSING: CorpusInfo fields in $db_header or their table in $ops"
    fail=1
  fi
  for field in $fields; do
    if ! printf '%s\n' "$rows" | grep -qx "$field"; then
      say "UNDOCUMENTED: CorpusInfo::$field has no row in the $ops catalog table"
      fail=1
    fi
  done
  for row in $rows; do
    if ! printf '%s\n' "$fields" | grep -qx "$row"; then
      say "STALE: $ops catalog table names $row, which CorpusInfo does not declare"
      fail=1
    fi
  done
fi

if [ "$fail" -ne 0 ]; then
  say ""
  say "docs check FAILED (see above)"
  exit 1
fi
say "docs check OK"
