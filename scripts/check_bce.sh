#!/usr/bin/env bash
# check_bce.sh — fail when the batched scoring kernel's inner loops compile
# with bounds checks. The multi-query kernel (internal/similarity/batch.go)
# and the attribute bit-plane code it calls per pair
# (internal/similarity/planes.go: the popcount loop and residual merge,
# plus the plane builders beside them) are written so the compiler can
# prove every per-row, per-query and per-word index in-bounds (sibling
# reslicing, uint guards, running offset cursors); this lint pins that
# property, because a single regressed hint silently costs double-digit
# percent on the hot path without failing any test. Used by the CI lint
# step and runnable locally:
#
#   ./scripts/check_bce.sh
#
# Per-row slice *headers* (IsSliceInBounds) are fine — they run once per
# aux row, not once per (query, element). Element checks (IsInBounds)
# inside batch.go or planes.go are the regression this script rejects.
set -euo pipefail

diag=$(go build -gcflags='-d=ssa/check_bce' ./internal/similarity/ 2>&1 || true)
bad=$(echo "$diag" | grep 'Found IsInBounds' | grep -E '(batch|planes)\.go' || true)
if [ -n "$bad" ]; then
    echo "bounds checks regressed in the batched scoring kernel:" >&2
    echo "$bad" >&2
    exit 1
fi
# Guard the guard: the diagnostics must actually be present (the package
# has known, allowed IsSliceInBounds sites), otherwise a toolchain change
# that silences -d=ssa/check_bce would make this lint pass vacuously.
if ! echo "$diag" | grep -q 'Found Is'; then
    echo "check_bce: no BCE diagnostics emitted — lint cannot verify the kernel" >&2
    echo "$diag" >&2
    exit 1
fi
echo "batched kernel: no element bounds checks in internal/similarity/batch.go or planes.go"
