#!/usr/bin/env bash
# Documentation consistency check (registered as the docs_check ctest).
#
# 1. Every intra-repo markdown link in the checked docs must resolve to an
#    existing file (anchors and external URLs are skipped).
# 2. Every SPECMATCH_* token mentioned in the checked docs must be a knob
#    registered in src/common/config.* (known_env_knobs), so docs and code
#    cannot drift apart. The checking macros (SPECMATCH_CHECK etc.) are code
#    identifiers, not env knobs, and are whitelisted.
# 3. Every wire-protocol verb the server implements (the request_keyword
#    switch in src/serve/protocol.cpp) must be documented in
#    docs/PROTOCOL.md, so the protocol spec cannot silently fall behind the
#    implementation. Conversely, every backquoted verb in a `###` heading of
#    PROTOCOL.md §2 must be one of those verbs, so a removed verb cannot
#    keep its section.
# 4. Every `stats` response tail key (the kStatsTailKeys registry between
#    the stats-tail-keys markers in src/serve/protocol.cpp) must be
#    documented in docs/SERVING.md. Conversely, every `key=` row of
#    SERVING.md's stats table must be a registered key.
#
# Usage: tools/docs_check.sh [repo_root]
set -uo pipefail

repo_root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$repo_root"

docs=(README.md EXPERIMENTS.md DESIGN.md docs/*.md)
config_files=(src/common/config.hpp src/common/config.cpp)
macro_whitelist='SPECMATCH_CHECK|SPECMATCH_CHECK_MSG|SPECMATCH_DCHECK'

status=0

# ---- 1. Intra-repo links resolve -------------------------------------------
for doc in "${docs[@]}"; do
  [[ -f "$doc" ]] || { echo "docs_check: MISSING doc $doc" >&2; status=1; continue; }
  doc_dir="$(dirname "$doc")"
  # Inline markdown links: [text](target). One per line via grep -o.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"         # drop any #anchor
    [[ -n "$path" ]] || continue
    # Relative to the doc's own directory, like a markdown renderer.
    if [[ ! -e "$doc_dir/$path" && ! -e "$path" ]]; then
      echo "docs_check: BROKEN LINK in $doc -> $target" >&2
      status=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\((.*)\)$/\1/')
done

# ---- 2. SPECMATCH_* tokens in docs are registered knobs ---------------------
known="$(grep -ohE 'SPECMATCH_[A-Z_]+' "${config_files[@]}" | sort -u)"
for doc in "${docs[@]}"; do
  [[ -f "$doc" ]] || continue
  while IFS= read -r token; do
    [[ "$token" =~ ^($macro_whitelist)$ ]] && continue
    if ! grep -qx "$token" <<< "$known"; then
      echo "docs_check: $doc mentions $token, not registered in src/common/config.*" >&2
      status=1
    fi
  done < <(grep -ohE 'SPECMATCH_[A-Z_]+' "$doc" | sort -u)
done

# ---- 3. Every protocol verb appears in docs/PROTOCOL.md ---------------------
protocol_src=src/serve/protocol.cpp
protocol_doc=docs/PROTOCOL.md
if [[ ! -f "$protocol_doc" ]]; then
  echo "docs_check: MISSING $protocol_doc" >&2
  status=1
else
  # The verbs are the string literals returned by request_keyword().
  verbs="$(sed -n '/request_keyword/,/^}/p' "$protocol_src" \
           | grep -oE 'return "[a-z]+"' | grep -oE '"[a-z]+"' | tr -d '"' \
           | sort -u)"
  if [[ -z "$verbs" ]]; then
    echo "docs_check: no verbs extracted from $protocol_src (request_keyword moved?)" >&2
    status=1
  fi
  for verb in $verbs; do
    if ! grep -qE "(^|[\` ])$verb([\` ]|$)" "$protocol_doc"; then
      echo "docs_check: verb '$verb' ($protocol_src) undocumented in $protocol_doc" >&2
      status=1
    fi
  done
  # Reverse: §2 headings name only implemented verbs.
  headed="$(sed -n '/^## 2\./,/^## 3\./p' "$protocol_doc" | grep -E '^### ' \
            | grep -oE '`[^`]+`' | tr -d '`')"
  if [[ -z "$headed" ]]; then
    echo "docs_check: no verb headings found in $protocol_doc §2 (section moved?)" >&2
    status=1
  fi
  for verb in $headed; do
    if ! grep -qx "$verb" <<< "$verbs"; then
      echo "docs_check: $protocol_doc §2 documents '$verb', not a verb in $protocol_src" >&2
      status=1
    fi
  done
fi

# ---- 4. Every stats tail key appears in docs/SERVING.md ---------------------
serving_doc=docs/SERVING.md
if [[ ! -f "$serving_doc" ]]; then
  echo "docs_check: MISSING $serving_doc" >&2
  status=1
else
  keys="$(sed -n '/stats-tail-keys-begin/,/stats-tail-keys-end/p' \
              "$protocol_src" \
          | grep -oE '"[a-z_]+"' | tr -d '"')"
  if [[ -z "$keys" ]]; then
    echo "docs_check: no stats tail keys extracted from $protocol_src (markers moved?)" >&2
    status=1
  fi
  for key in $keys; do
    if ! grep -qE "(^|[\`| ])$key(=|\`)" "$serving_doc"; then
      echo "docs_check: stats key '$key' ($protocol_src) undocumented in $serving_doc" >&2
      status=1
    fi
  done
  # Reverse: every `key=` table row is a registered key.
  rows="$(grep -oE '^\| `[a-z_]+=`' "$serving_doc" | grep -oE '[a-z_]+')"
  for key in $rows; do
    if ! grep -qx "$key" <<< "$keys"; then
      echo "docs_check: $serving_doc documents stats key '$key', not in $protocol_src kStatsTailKeys" >&2
      status=1
    fi
  done
fi

if [[ "$status" -eq 0 ]]; then
  echo "docs_check: OK (${#docs[@]} docs checked)"
fi
exit "$status"
