#!/usr/bin/env bash
# Run a fixed list of tropmirror commands and keep everything each one emits.
#
#     tools/outputs.sh OUT [ROOT]
#
# ROOT is a source checkout (default: the one holding this script); its
# src/ is put first on PYTHONPATH, nothing is installed.  For every case
# OUT/<case>/ receives the command's output files under out/, its stdout,
# its stderr and its exit code.  Two trees made from two checkouts with the
# same interpreter and libraries must agree byte for byte (`diff -r`) unless
# the change between them alters outputs on purpose:
#
#     git worktree add /tmp/base <base commit>
#     tools/outputs.sh /tmp/out-base /tmp/base
#     tools/outputs.sh /tmp/out-head
#     diff -r /tmp/out-base /tmp/out-head
#
# PYTHON selects the interpreter (default python3).
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 OUT [ROOT]" >&2
    exit 2
fi
OUT=$1
ROOT=$(cd "${2:-$(dirname "$0")/..}" && pwd)
PYTHON=${PYTHON:-python3}
if [[ ! -f "$ROOT/src/tropmirror/cli.py" ]]; then
    echo "no tropmirror sources under $ROOT/src" >&2
    exit 2
fi
if [[ -e "$OUT" ]]; then
    echo "$OUT exists; give a new directory" >&2
    exit 2
fi
mkdir -p "$OUT/fans"

# the fans of the benchmark: the four standing varieties plus P^1 and P^3
cat > "$OUT/fans/p1.json" <<'EOF'
{"rays": [[1], [-1]], "max_cones": [[0], [1]], "phi": ["1", "1"]}
EOF
cat > "$OUT/fans/p2.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]], "phi": ["1", "1", "1"]}
EOF
cat > "$OUT/fans/p1xp1.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]], "phi": ["1", "1", "1", "1"]}
EOF
cat > "$OUT/fans/f1.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, 1], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]], "phi": ["1", "1", "2", "1"]}
EOF
cat > "$OUT/fans/p3.json" <<'EOF'
{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], "phi": ["1", "1", "1", "1"]}
EOF

# subdivision corner cases: rank 4, a flat lift (one cell), tied cells
cat > "$OUT/fans/p4.json" <<'EOF'
{"rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]], "max_cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]], "phi": ["1", "1", "1", "1", "1"]}
EOF
cat > "$OUT/fans/p2-flat.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]], "phi": ["0", "0", "0"]}
EOF
cat > "$OUT/fans/p1xp1-tied.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]], "phi": ["1", "0", "1", "0"]}
EOF

# the cube fan of (P^1)^3: all of Pi (46 faces), and a tie that leaves two
# square pyramids whose shared facet holds the origin, which is no vertex
cat > "$OUT/fans/p1xp1xp1.json" <<'EOF'
{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], "max_cones": [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]], "phi": ["1", "1", "1", "1", "1", "1"]}
EOF
cat > "$OUT/fans/p1xp1xp1-tied.json" <<'EOF'
{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]], "max_cones": [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]], "phi": ["1", "0", "0", "1", "0", "0"]}
EOF

# two smooth rank-3 blow-ups: P^3 at a torus-fixed point (the cone
# {e1, e2, e3} star-subdivided at (1, 1, 1)), and (P^1)^3 along a
# torus-invariant curve (the 2-cone {e1, e2} star-subdivided at (1, 1, 0))
cat > "$OUT/fans/p3-blowup-point.json" <<'EOF'
{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]], "max_cones": [[0, 1, 4], [0, 2, 4], [1, 2, 4], [0, 1, 3], [0, 2, 3], [1, 2, 3]], "phi": ["1", "1", "1", "1", "2"]}
EOF
cat > "$OUT/fans/p1xp1xp1-blowup-curve.json" <<'EOF'
{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 0]], "max_cones": [[0, 2, 6], [1, 2, 6], [0, 5, 6], [1, 5, 6], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5], [2, 3, 4], [3, 4, 5]], "phi": ["1", "1", "1", "1", "1", "1", "1"]}
EOF

# P^2 with the cone {v1, v2} dropped: every ray still lies in a cone, so the
# fan is well formed, but it is not complete
cat > "$OUT/fans/p2-missing-cone.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [0, 2]], "phi": ["1", "1", "1"]}
EOF

# P(1,1,2): three cells, not maximal (the cone of (1, 0) and (-1, -2) has
# determinant -2), and a half-integral vertex (1, -3/2) of Q.  Its verify
# stays out of this list: the Serre check once failed there (exit 4),
# because the interior counts of a non-lattice Q form a quasi-polynomial
cat > "$OUT/fans/p112.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, -2]], "max_cones": [[0, 1], [1, 2], [0, 2]], "phi": ["1", "1", "2"]}
EOF

# the Hirzebruch surface F_2: with z1 fixed, its fibers are cubics in z2, so
# only its amoeba runs reach the sampler's companion-matrix roots (the fibers
# of P^2, F_1 and P^1 x P^1 have degree <= 2 and take the closed forms)
cat > "$OUT/fans/f2.json" <<'EOF'
{"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]], "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]], "phi": ["1", "1", "2", "1"]}
EOF

# P^2 x P^2: rank 4 with 9 cells, the one rank-4 fan here that is no simplex
cat > "$OUT/fans/p2xp2.json" <<'EOF'
{"rays": [[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1]], "max_cones": [[0, 1, 3, 4], [0, 1, 4, 5], [0, 1, 3, 5], [1, 2, 3, 4], [1, 2, 4, 5], [1, 2, 3, 5], [0, 2, 3, 4], [0, 2, 4, 5], [0, 2, 3, 5]], "phi": ["1", "1", "1", "1", "1", "1"]}
EOF

T_E8=2980.9579870417283  # repr(math.exp(8.0)): log t = 8

# run CASE FAN SUBCOMMAND [FLAGS...]
run() {
    local case=$1 fan=$2
    shift 2
    local dir="$OUT/$case"
    mkdir -p "$dir"
    local code=0
    PYTHONPATH="$ROOT/src" "$PYTHON" -c \
        'import sys; from tropmirror.cli import main; sys.exit(main(sys.argv[1:]))' \
        "$@" --input "$OUT/fans/$fan.json" --out "$dir/out" \
        > "$dir/stdout.txt" 2> "$dir/stderr.txt" || code=$?
    echo "$code" > "$dir/exit_code.txt"
}

for fan in p1 p2 p1xp1 f1 p3; do
    run "subdivide-$fan" "$fan" subdivide
    run "tropical-$fan" "$fan" tropical
    run "verify-$fan-J3" "$fan" verify --J 3
    run "hilbert-$fan-J8" "$fan" hilbert --J 8
done

for fan in p4 p2-flat p1xp1-tied; do
    run "subdivide-$fan" "$fan" subdivide
    run "tropical-$fan" "$fan" tropical
done

# the hilbert jobs of the benchmark, rank 4, and the flat lift, whose
# interior counts are a domain error (exit 2)
run hilbert-p3-J10 p3 hilbert --J 10
run hilbert-f1-J40 f1 hilbert --J 40
run hilbert-p4-J6 p4 hilbert --J 6
run hilbert-p2-flat p2-flat hilbert

# an incomplete fan: a domain error (exit 2) wherever Q is needed
run verify-p2-missing-cone p2-missing-cone verify
run hilbert-p2-missing-cone p2-missing-cone hilbert

run subdivide-p1xp1xp1-tied p1xp1xp1-tied subdivide
run tropical-p1xp1xp1 p1xp1xp1 tropical

for fan in p3-blowup-point p1xp1xp1-blowup-curve; do
    run "subdivide-$fan" "$fan" subdivide
    run "tropical-$fan" "$fan" tropical
    run "verify-$fan-J2" "$fan" verify --J 2
    run "hilbert-$fan-J6" "$fan" hilbert --J 6
done

run tropical-p2xp2 p2xp2 tropical
# a certified log t* past 709: t* itself is no double and is written as null
run tropical-p2-eps0.05 p2 tropical --eps 0.05

run subdivide-p112 p112 subdivide
run tropical-p112 p112 tropical
run hilbert-p112-J6 p112 hilbert --J 6

# the flat lift has no certified scale: amoeba without --t is a domain error
run amoeba-p2-flat p2-flat amoeba

# the amoeba jobs of the benchmark (bench/workloads.py)
run amoeba-p2-e8-s0-g120 p2 amoeba --t "$T_E8" --s 0 --grid 120
run amoeba-p2-certified p2 amoeba
run amoeba-p2-e8-s1-g16 p2 amoeba --t "$T_E8" --s 1 --grid 16

# the README example
run readme-verify p2 verify --J 4
run readme-amoeba p2 amoeba --t 54.598 --grid 60 --window=-3,3,-3,3

# more amoeba grids: odd and even, both deformation paths, the certified scale
run amoeba-p2-e8-s0-g41 p2 amoeba --t "$T_E8" --s 0 --grid 41
run amoeba-p2-e8-s0.5-g21 p2 amoeba --t "$T_E8" --s 0.5 --grid 21 --window=-2,1,-1,3
run amoeba-p2-certified-s0-g40 p2 amoeba --s 0 --grid 40
run amoeba-f1-certified-g12 f1 amoeba --grid 12
run amoeba-f1-e8-s0-g60 f1 amoeba --t "$T_E8" --s 0 --grid 60
run amoeba-p1xp1-e8-s0-g33 p1xp1 amoeba --t "$T_E8" --s 0 --grid 33
run amoeba-p1xp1-t20-s1-g10 p1xp1 amoeba --t 20 --s 1 --grid 10

# degree-3 fibers (F_2) at log t = 8, given by --t: the certified log t* of
# F_2 is about 1003 at eps = 0.1, and t* itself is no double
run amoeba-f2-e8-s0-g30 f2 amoeba --t "$T_E8" --s 0 --grid 30
run amoeba-f2-e8-s1-g12 f2 amoeba --t "$T_E8" --s 1 --grid 12
