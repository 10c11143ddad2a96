#!/bin/bash
# The exit-code contract of `lyapset analyze` and `lyapset plot`, run from
# the repository root with its files under the directory $1:
#
#     bash .github/exit-codes.sh "$RUNNER_TEMP/exit-codes"
#
# analyze exits 2 on a negative verdict and 3 when a block fails; a
# step budget of 3 makes the linear sink's stability and certificate
# blocks fail and turns each of its 81 ROA nodes into an error row.
# The delta bisection stops within the stability block's tol: every
# harmonic pair has a delta, the deltas ascend and eps - delta <= tol,
# while the unstable system still reports its witness. A file that
# breaks a sampling rule (out_dt above the horizon, Simpson's rule on
# an odd interval count), holds a number that is not finite
# (Infinity) or an integer key that makes more starts than one block
# may (a 401-digit resolution) exits 1 at load with a pointer, no
# traceback; so do a file that is not UTF-8 (pointer "") and a field
# nested deeper than expr.MAX_DEPTH (/field/0). An --out-dir that is
# a file exits 1 with an error line and writes no report. plot of a
# report that is JSON of the wrong shape (a block that is a number)
# exits 1 with an error line that names the block's pointer, and
# writes no SVG; so does a report whose problem is bad, named by its
# pointer within the report.
set -eo pipefail
out="$1"
mkdir -p "$out"
PYTHONPATH=src python -m lyapset.cli analyze problems/unstable_linear.json --out-dir "$out/exit" && rc=0 || rc=$?
test "$rc" -eq 2 || { echo "unstable_linear exited $rc, expected 2"; exit 1; }
python -c 'import json, sys; p = json.load(open(sys.argv[1]))["blocks"]["stability"]["pairs"]; assert p[0]["delta"] is None and p[0]["witness"], p' "$out/exit/unstable_linear.report.json"
PYTHONPATH=src python -m lyapset.cli analyze problems/harmonic_oscillator.json --out-dir "$out/exit"
python -c 'import json, sys; tol = json.load(open(sys.argv[1]))["stability"]["tol"]; p = json.load(open(sys.argv[2]))["blocks"]["stability"]["pairs"]; d = [q["delta"] for q in p]; assert None not in d and d == sorted(d), p; assert all(q["epsilon"] - q["delta"] <= tol for q in p), p' problems/harmonic_oscillator.json "$out/exit/harmonic_oscillator.report.json"
python -c 'import json, sys; p = json.load(open(sys.argv[1])); p.setdefault("integrator", {})["max_steps"] = 3; json.dump(p, open(sys.argv[2], "w"))' problems/linear_sink.json "$out/linear_sink_3_steps.json"
PYTHONPATH=src python -m lyapset.cli analyze "$out/linear_sink_3_steps.json" && rc=0 || rc=$?
test "$rc" -eq 3 || { echo "linear_sink with max_steps 3 exited $rc, expected 3"; exit 1; }
python -c 'import json, sys; b = json.load(open(sys.argv[1]))["blocks"]; assert "error" in b["certificate"], b["certificate"]; assert b["roa"]["summary"]["errors"] == 81, b["roa"]["summary"]' "$out/linear_sink_3_steps.report.json"
echo '{"dimension": 1, "field": ["-x1"], "set": {"type": "point", "coords": [0]}, "roa": {"box": [[-1], [1]], "horizon": 1.0, "out_dt": 2.0}}' > "$out/roa_out_dt.json"
echo '{"dimension": 1, "field": ["-x1"], "set": {"type": "point", "coords": [0]}, "converse": {"horizon": 0.9, "out_dt": 0.3, "quadrature": "simpson"}}' > "$out/simpson_odd.json"
echo '{"dimension": 1, "field": ["-x1"], "set": {"type": "point", "coords": [0]}, "roa": {"box": [[-1], [1]], "horizon": Infinity}}' > "$out/roa_infinity.json"
python -c 'import json, sys; json.dump({"dimension": 1, "field": ["-x1"], "set": {"type": "point", "coords": [0]}, "roa": {"box": [[-1], [1]], "resolution": 10**400}}, open(sys.argv[1], "w"))' "$out/roa_resolution.json"
printf '{"dimension": 1, \xff}' > "$out/not_utf8.json"
python -c 'import json, sys; json.dump({"dimension": 1, "field": ["(" * 5000 + "x1" + ")" * 5000], "set": {"type": "point", "coords": [0]}}, open(sys.argv[1], "w"))' "$out/deep_field.json"
for case in roa_out_dt:/roa/out_dt simpson_odd:/converse/quadrature roa_infinity:/roa/horizon roa_resolution:/roa/resolution not_utf8: deep_field:/field/0; do
  PYTHONPATH=src python -m lyapset.cli analyze "$out/${case%%:*}.json" 2> "$out/err.txt" && rc=0 || rc=$?
  cat "$out/err.txt"
  test "$rc" -eq 1 || { echo "${case%%:*} exited $rc, expected 1"; exit 1; }
  grep -q "^error: ${case#*:}: " "$out/err.txt" || { echo "no ${case#*:} pointer"; exit 1; }
  ! grep -q Traceback "$out/err.txt" || exit 1
  test ! -e "$out/${case%%:*}.report.json" || { echo "${case%%:*} wrote a report"; exit 1; }
done
mkdir "$out/out_file" && cp problems/linear_sink.json "$out/out_file/" && touch "$out/out_file/taken"
PYTHONPATH=src python -m lyapset.cli analyze "$out/out_file/linear_sink.json" --out-dir "$out/out_file/taken" 2> "$out/err.txt" && rc=0 || rc=$?
cat "$out/err.txt"
test "$rc" -eq 1 || { echo "--out-dir at a file exited $rc, expected 1"; exit 1; }
grep -q "^error: " "$out/err.txt" || { echo "no error line"; exit 1; }
! grep -q Traceback "$out/err.txt" || exit 1
test "$(ls "$out/out_file")" = "$(printf 'linear_sink.json\ntaken')" || { echo "--out-dir at a file wrote a report"; exit 1; }
python -c 'import json, sys; r = json.load(open(sys.argv[1])); r["blocks"]["stability"] = 3; json.dump(r, open(sys.argv[2], "w"))' "$out/exit/harmonic_oscillator.report.json" "$out/malformed.report.json"
PYTHONPATH=src python -m lyapset.cli plot "$out/malformed.report.json" 2> "$out/err.txt" && rc=0 || rc=$?
cat "$out/err.txt"
test "$rc" -eq 1 || { echo "plot of a malformed report exited $rc, expected 1"; exit 1; }
grep -q "^error: /blocks/stability: " "$out/err.txt" || { echo "no /blocks/stability pointer"; exit 1; }
! grep -q Traceback "$out/err.txt" || exit 1
test ! -e "$out/malformed.svg" || { echo "plot of a malformed report wrote an SVG"; exit 1; }
python -c 'import json, sys; r = json.load(open(sys.argv[1])); r["problem"] = {"dimension": "a"}; json.dump(r, open(sys.argv[2], "w"))' "$out/exit/harmonic_oscillator.report.json" "$out/bad_problem.report.json"
PYTHONPATH=src python -m lyapset.cli plot "$out/bad_problem.report.json" 2> "$out/err.txt" && rc=0 || rc=$?
cat "$out/err.txt"
test "$rc" -eq 1 || { echo "plot of a report with a bad problem exited $rc, expected 1"; exit 1; }
grep -q "^error: /problem/dimension: " "$out/err.txt" || { echo "no /problem/dimension pointer"; exit 1; }
! grep -q Traceback "$out/err.txt" || exit 1
test ! -e "$out/bad_problem.svg" || { echo "plot of a report with a bad problem wrote an SVG"; exit 1; }
