#!/usr/bin/env sh
# Layering gate: the paper testbed (everything below the cluster and session
# tiers) must not include a cluster/ or session/ header. The link graph cannot
# enforce this, since msim_core still links msim_cluster for its consumers.
#
# Usage: tools/check_layering.sh
#
# Exits 0 when clean, 1 when it prints an offending include line.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

if grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*["<](cluster|session)/' \
  src/util src/sim src/net src/transport src/geo src/avatar src/client \
  src/interest src/platform src/core; then
  echo "check_layering.sh: the files above include a cluster/ or session/ header" >&2
  exit 1
fi
