#!/usr/bin/env bash
# Check that spmd_fig4's modeled overheads equal the paper harness's.
#
# Runs `fig4 --max-p 256` and one short spmd_fig4 benchmark run, then
# compares, for BT, SP, LU and POP at P=256, the Chameleon and ScalaTrace
# overhead columns fig4 prints with the per-code overheads the benchmark
# prints (both are RunReport::total_overhead at six decimals).
#
# Usage, from the repository root:  bash perfbench/agree_fig4.sh
# Exits 0 when all eight values agree, 1 otherwise.
set -euo pipefail

fig4=$(cargo run --release --offline --quiet -p chameleon-bench --bin fig4 -- --max-p 256)
bench=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload spmd_fig4 --seed 1 --seconds 1 --trace 0)

status=0
for code in BT SP LU POP; do
    row=$(awk -v c="$code" '$1 == c && $2 == 256 {print $4, $5}' <<<"$fig4")
    cham=$(awk -v c="$code@P256" '$2 == c && $3 == "chameleon" {print $(NF-1)}' <<<"$bench")
    st=$(awk -v c="$code@P256" '$2 == c && $3 == "scalatrace" {print $(NF-1)}' <<<"$bench")
    if [[ "$row" == "$cham $st" ]]; then
        echo "agree    $code P=256: Chameleon $cham s, ScalaTrace $st s"
    else
        echo "DISAGREE $code P=256: fig4 '$row', perfbench '$cham $st'"
        status=1
    fi
done
exit $status
