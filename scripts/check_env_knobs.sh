#!/usr/bin/env bash
# Fails when the set of "CORTEX_*" environment variable names spelled as
# string literals under src/ differs from the four the library reads:
#   CORTEX_FAULTS         fault-injection spec (support/fault_injection)
#   CORTEX_ILIR_VERIFY    ILIR static verifier after every pass
#   CORTEX_JIT_CACHE_DIR  JIT artifact directory
#   CORTEX_JIT_CC         JIT compiler command
# Every other setting is an options-struct field or a constant. A new
# knob needs a stated reason and an entry here and in the README's
# "Environment variables" section. Registered as a tier1 ctest.
set -euo pipefail

cd "$(dirname "$0")/.."

allowed='CORTEX_FAULTS
CORTEX_ILIR_VERIFY
CORTEX_JIT_CACHE_DIR
CORTEX_JIT_CC'

found=$(grep -rhoE '"CORTEX_[A-Z_]+"' src | tr -d '"' | LC_ALL=C sort -u)

if [[ "${found}" != "${allowed}" ]]; then
  echo "env knob check FAILED: CORTEX_* names under src/ differ from the" \
       "allowed set" >&2
  diff <(echo "${allowed}") <(echo "${found}") >&2 || true
  exit 1
fi
echo "env knobs OK ($(echo "${found}" | wc -l) names)"
