#!/usr/bin/env bash
# Run two rigidspec source trees on the same inputs and compare stdout,
# stderr and exit codes byte for byte.
#
#   scripts/compare_outputs.sh BASE_SRC HEAD_SRC
#
# BASE_SRC and HEAD_SRC are `src/` directories.  The inputs are the three
# sweeps at their README defaults (JSON, and CSV where the subcommand has
# --format), `laman-extremal` up to the largest order it grows (n = 9, JSON
# and CSV), `family-sweep` with three links and with four links up to
# n = 200, `extremal --delta 9 --nmax 40`
# (at seed 5, and as CSV), `extremal --delta 7 --nmax 60` and
# `extremal --delta 8 --nmax 50 --seed 3` for larger family members,
# `extremal` at seed 0 and at the rejected seed -1 (its stderr and exit
# code), and `analyze` on the benchmark's seeded corpora
# (perfbench/corpora.py, seeds 1-2; seeds 1-5 of
# corpus-dense for denser rigidity verdicts, and seeds 1-10 of corpus-small,
# whose disconnected graphs print eigensolver noise as their algebraic
# connectivity; JSON and CSV, --jobs 1 and 2), on a corpus of degenerate
# graphs (complete graphs, disjoint unions, isolated vertices, one and two
# vertices; JSON and CSV, --jobs 1 and 2), on a corpus of seeded
# relabellings of the equal-clique two-clique graphs linked_cliques(2a, a,
# links) and linked_cliques(2a + 1, a, links), 3 <= a <= 100, links 2 and
# 3, whose radius the closed form leaves to an eigensolve (JSON and CSV),
# and on a corpus of bad lines
# read from a file and from stdin (JSON and CSV, --jobs 1, 2 and 8; at 8
# the pool is capped at its 6 nonblank lines).  Every run reads stdin from
# /dev/null unless its last word is `<FILE`.  RIGIDSPEC_SEED is unset for every run, since older
# trees read it as the default seed of `extremal`.
# Prints one line per run and exits 1 when any run differs.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE_SRC HEAD_SRC" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for src in "$base" "$head"; do
    where=$(PYTHONPATH="$src" python3 -c \
        'import rigidspec; print(rigidspec.__file__)')
    case "$where" in
        "$src"/*) ;;
        *) echo "rigidspec imported from $where, not $src" >&2; exit 2 ;;
    esac
done

runs=(
    "laman-extremal --nmin 3 --nmax 8"
    "laman-extremal --nmin 3 --nmax 8 --format csv"
    "laman-extremal --nmin 3 --nmax 9"
    "laman-extremal --nmin 3 --nmax 9 --format csv"
    "family-sweep --links 2 --clique-min 3 --clique-max 12 --nmax 60"
    "family-sweep --links 3 --clique-min 4 --clique-max 9 --nmax 40"
    "family-sweep --links 4 --clique-min 5 --clique-max 40 --nmax 200"
    "extremal --delta 6 --nmax 26"
    "extremal --delta 6 --nmax 26 --format csv"
    "extremal --delta 9 --nmax 40 --seed 5"
    "extremal --delta 9 --nmax 40 --format csv"
    "extremal --delta 7 --nmax 60"
    "extremal --delta 8 --nmax 50 --seed 3"
    "extremal --delta 6 --nmax 26 --seed 0"
    "extremal --delta 6 --nmax 16 --seed=-1"
)
for name in corpus-small corpus-dense corpus-sparse; do
    case "$name" in
        corpus-small) seeds="1 2 3 4 5 6 7 8 9 10" ;;
        corpus-dense) seeds="1 2 3 4 5" ;;
        *) seeds="1 2" ;;
    esac
    for seed in $seeds; do
        corpus="$work/$name-$seed.g6"
        python3 - "$repo/perfbench" "$name" "$seed" > "$corpus" <<'EOF'
import sys

sys.path.insert(0, sys.argv[1])
import corpora

items = corpora.CORPORA[sys.argv[2]](int(sys.argv[3]))
sys.stdout.write(corpora.corpus_text(items))
EOF
        for jobs in 1 2; do
            runs+=("analyze $corpus --jobs $jobs"
                   "analyze $corpus --jobs $jobs --format csv")
        done
    done
done

# degenerate graphs: K_1 ... K_20 (so the one- and two-vertex lines @ and
# A_), disjoint unions of 2 and 3 seeded G(n, p) parts, graphs with
# isolated vertices, and edgeless graphs on 2, 3 and 5 vertices
degenerate="$work/degenerate.g6"
python3 - "$repo/perfbench" > "$degenerate" <<'EOF'
import random
import sys
from itertools import combinations

sys.path.insert(0, sys.argv[1])
from corpora import write_graph6

rng = random.Random(25)


def gnp(n, p):
    return n, [e for e in combinations(range(n), 2) if rng.random() < p]


def union(parts):
    """The disjoint union of (n, edges) parts, randomly relabelled."""
    edges, lo = [], 0
    for n, part in parts:
        edges += [(u + lo, v + lo) for u, v in part]
        lo += n
    perm = list(range(lo))
    rng.shuffle(perm)
    return write_graph6(lo, [(perm[u], perm[v]) for u, v in edges])


lines = [write_graph6(n, combinations(range(n), 2)) for n in range(1, 21)]
for k in (2, 2, 2, 2, 2, 3, 3, 3, 3, 3):
    lines.append(union([gnp(rng.randint(1, 40), rng.uniform(0.2, 0.95))
                        for _ in range(k)]))
for _ in range(8):
    lines.append(union([gnp(rng.randint(2, 30), rng.uniform(0.3, 0.95))]
                       + [(1, [])] * rng.randint(1, 3)))
lines += [write_graph6(n, []) for n in (2, 3, 5)]
sys.stdout.write("".join(line + "\n" for line in lines))
EOF
for jobs in 1 2; do
    runs+=("analyze $degenerate --jobs $jobs"
           "analyze $degenerate --jobs $jobs --format csv")
done

# equal cliques: linked_cliques(n, a, links) for n = 2a and 2a + 1, its
# vertices shuffled
equal="$work/equal-cliques.g6"
python3 - "$repo/perfbench" > "$equal" <<'EOF'
import random
import sys
from itertools import combinations

sys.path.insert(0, sys.argv[1])
from corpora import write_graph6

rng = random.Random(30)
for links in (2, 3):
    for a in range(3, 101):
        for n in (2 * a, 2 * a + 1):
            edges = [e for part in (range(a), range(a, n))
                     for e in combinations(part, 2)]
            edges += [(j, a + j) for j in range(links)]
            perm = list(range(n))
            rng.shuffle(perm)
            print(write_graph6(n, [(perm[u], perm[v]) for u, v in edges]))
EOF
runs+=("analyze $equal" "analyze $equal --format csv")

# a good line and a blank line, then the empty graph, a short body, a
# non-ASCII byte, a line that only str.strip empties, and a good line
bad="$work/bad-lines.g6"
printf 'Bw\n\n?\nA_x\nB\xe9\n\x1c\nCw\n' > "$bad"
for jobs in 1 2 8; do
    for format in json csv; do
        runs+=("analyze $bad --jobs $jobs --format $format"
               "analyze - --jobs $jobs --format $format <$bad")
    done
done

differ=0
for k in "${!runs[@]}"; do
    read -r -a args <<< "${runs[$k]}"
    input=/dev/null
    if [[ "${args[-1]}" == "<"* ]]; then
        input=${args[-1]#<}
        unset 'args[-1]'
    fi
    for side in base head; do
        src=$base
        [ "$side" = head ] && src=$head
        code=0
        env -u RIGIDSPEC_SEED PYTHONPATH="$src" \
            python3 -m rigidspec.cli "${args[@]}" < "$input" \
            > "$work/$k.$side.out" 2> "$work/$k.$side.err" || code=$?
        echo "$code" > "$work/$k.$side.code"
    done
    if cmp -s "$work/$k.base.out" "$work/$k.head.out" \
            && cmp -s "$work/$k.base.err" "$work/$k.head.err" \
            && cmp -s "$work/$k.base.code" "$work/$k.head.code"; then
        echo "same    (exit $(cat "$work/$k.head.code")) ${runs[$k]//"$work/"/}"
    else
        echo "DIFFERS ${runs[$k]//"$work/"/}"
        differ=1
    fi
done
exit "$differ"
