#!/usr/bin/env bash
# Run a fixed list of bohrlab commands on a base revision and on the working
# tree, and report every artifact, stdout and exit code that differs.
#
#   usage: tools/artifact_diff.sh BASE_REV
#
# BASE_REV (any git revision, e.g. HEAD~) is extracted with `git archive | tar -x`
# into a temporary directory, which is local and leaves git's state alone; the
# other side is the working tree's src/.  Each command runs with --out, and its
# stdout and exit code are kept next to the artifact.  Every file is compared
# with cmp; the script prints the ones that differ and exits 1 if there are
# any, else 0.  Two runs read their options from config files written into the
# temporary directory, so --config parsing is compared too.  PYTHON names the
# interpreter (default python3).
set -euo pipefail

base_rev=${1:?usage: tools/artifact_diff.sh BASE_REV}
python=${PYTHON:-python3}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base-tree" "$work/base" "$work/work"
git -C "$repo" archive "$base_rev" | tar -x -C "$work/base-tree"
echo '{"gammas": "0.1,0.5", "grid": 16}' >"$work/sweep-2-config.json"
echo '{"check": ["schwarz-pick", "ruscheweyh-derivatives"], "fast": true}' >"$work/verify-config.json"

# One run per line: artifact name, artifact suffix, then the command's arguments.
# Runs that share a name append to one artifact (radius CSVs append).
commands() {
    local t g a
    for t in A B 1 2 3 4 corollary; do
        echo "radius-$t json radius --theorem $t"
        for a in 0.9 0.999; do
            echo "radius-$t-a$a json radius --theorem $t --a $a"
        done
    done
    for t in B 1 2 3 4; do
        for g in 0 0.37 0.9 0.99; do
            echo "radius-$t-g$g-k0.35 json radius --theorem $t --gamma $g --k 0.35"
        done
    done
    for t in A B 1 2 3 4 corollary; do
        echo "radius-a0.5 csv radius --theorem $t --a 0.5"
    done
    # order 16: the certificate tail is nonzero at every probe and every member sums its full length
    for t in B 1 2 3 4; do
        echo "radius-$t-g0.5-order16 json radius --theorem $t --gamma 0.5 --order 16"
    done
    echo "radius-2-g0.9-tol1e-14 json radius --theorem 2 --gamma 0.9 --tol 1e-14"
    for t in B 1 2 3 4; do
        echo "sweep-$t csv sweep --theorem $t --gammas 0:0.99:34"
    done
    echo "sweep-4-k0.3 csv sweep --theorem 4 --gammas 0:0.99:34 --k 0.3"
    echo "sweep-3-lambda0.7 csv sweep --theorem 3 --gammas 0:0.99:34 --lambda 0.7"
    echo "sweep-2-config csv sweep --theorem 2 --config $work/sweep-2-config.json"
    echo "verify-config json verify --config $work/verify-config.json"
    # no flag but --out: each value comes from its flag's default, the one place it is written
    echo "verify json verify"
    echo "identity-check json identity-check"
    echo "conjecture csv conjecture"
    echo "verify-all-42 json verify --all --seed 42"
    echo "verify-fast-7 json verify --all --fast --seed 7"
    echo "identity-300-5 json identity-check --samples 300 --seed 5"
    echo "conjecture-12 csv conjecture --gammas 0:0.99:12"
    echo "conjecture-augment csv conjecture --gammas 0,0.5 --augment-random-samples 8 --seed 3"
    # 150 samples: three augmentation blocks of 64, 64 and 22
    echo "conjecture-augment-150 csv conjecture --gammas 0:0.99:6 --augment-random-samples 150 --seed 11"
}

run_all() {  # run_all SRC OUT: every command on the package in SRC, its files in OUT
    local src=$1 out=$2 name suffix args code
    while read -r name suffix args; do
        code=0
        # shellcheck disable=SC2086  # args is a list of words
        (cd "$out" && PYTHONPATH=$src "$python" -m bohrlab.cli $args --out "$name.$suffix") \
            >>"$out/$name.stdout" || code=$?
        echo "$code" >>"$out/$name.code"
    done < <(commands)
}

run_all "$work/base-tree/src" "$work/base"
run_all "$repo/src" "$work/work"

differ=0 total=0
for file in "$work/base"/* "$work/work"/*; do
    name=$(basename "$file")
    [[ $file == "$work/work/"* && -e "$work/base/$name" ]] && continue  # compared from the base side
    total=$((total + 1))
    if ! cmp -s "$work/base/$name" "$work/work/$name"; then
        echo "differs: $name"
        differ=$((differ + 1))
    fi
done
echo "$((total - differ)) of $total files identical to $base_rev"
[[ $differ -eq 0 ]]
