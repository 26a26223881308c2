#!/bin/sh
# Run every bundled config of two source trees and compare their outputs.
#
#   sh .github/diff-bundled-outputs.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Each tree runs its own src/hopquant/configs/*.cfg through
# `python -m hopquant.cli run`, with PYTHONPATH set to its src, into
# WORK_DIR/base and WORK_DIR/head, making WORK_DIR if it is missing. Prints
# `diff -r` of the two and exits 0 when they are identical, 1 when they
# differ and 2 when a run fails.
#
# No bundled report depends on the BLAS thread count (the workflow's
# bundled-config step checks it), but a base tree may: older trees' dense
# propagation gave some reports other last digits with the machine's default
# OpenBLAS threads than with one. So, as a guard, both trees run with
# OPENBLAS_NUM_THREADS=1 unless the caller sets it.
set -u
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
base=$1 head=$2 work=$3
mkdir -p "$work" || exit 2
status=0
for side in base head; do
  if [ "$side" = base ]; then tree=$base; else tree=$head; fi
  src=$(cd "$tree/src" && pwd)
  found=$(PYTHONPATH="$src" python -c "import hopquant, os; print(os.path.dirname(hopquant.__file__))")
  if [ "$found" != "$src/hopquant" ]; then
    echo "$side: hopquant is imported from $found, not from $src"; exit 2
  fi
  for cfg in "$src"/hopquant/configs/*.cfg; do
    name=$(basename "$cfg" .cfg)
    if ! PYTHONPATH="$src" python -m hopquant.cli run "$cfg" --out "$work/$side/$name" \
        > "$work/$side-$name.log" 2>&1; then
      echo "$side: $name.cfg failed"; tail -n 5 "$work/$side-$name.log"; status=2
    fi
  done
done
diff -r "$work/base" "$work/head" || [ "$status" -ne 0 ] || status=1
exit "$status"
