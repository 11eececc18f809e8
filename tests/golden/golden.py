#!/usr/bin/env python3
"""Golden-report ledger for the modelled bench reports.

Each bench writes its modelled report(s) as JSON.  The canonical form of a
report drops the host-dependent top-level keys (wall_ms, timestamp_utc,
commit) and notes (simd_tier), keeps only the keys of KEY_FILTER where the
bench has one, and sorts every object's keys; tests/golden/ holds that form
for every report listed in BENCHES.

  golden.py check <bench-binary>   run one bench, compare its reports
  golden.py update <build-dir>     re-run every bench, rewrite the goldens

Both modes run the binary with RCARB_JOBS=4, the bench's BENCH_ENV entries
and --benchmark_filter=NONE (the report is written even when no
google-benchmark case matches).  A check prints every changed key with its
old and new values and exits 1.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# bench binary name -> the report files it writes.
BENCHES = {
    "bench_degradation": ["BENCH_degradation.json"],
    "bench_elision": ["BENCH_elision.json"],
    "bench_fault_campaign": ["BENCH_fault_campaign.json"],
    "bench_fft_section5": ["BENCH_fft_section5.json"],
    "bench_fig8_overhead": ["BENCH_fig8_overhead.json",
                            "TRACE_fig8_overhead.json"],
    "bench_global_schedule": ["BENCH_global_schedule.json"],
    "bench_table1_channel": ["BENCH_table1_channel.json"],
    "bench_virtual_wires": ["BENCH_virtual_wires.json"],
    "bench_service_load": ["BENCH_service_load.json"],
    "bench_service_faults": ["BENCH_service_faults.json"],
    "bench_fig6_area": ["BENCH_fig6_area.json"],
    "bench_fig7_speed": ["BENCH_fig7_speed.json"],
    "bench_policy_ablation": ["BENCH_policy_ablation.json"],
    "bench_encoding_ablation": ["BENCH_encoding_ablation.json"],
    "bench_arbiter_scaling": ["BENCH_arbiter_scaling.json"],
    "bench_sim_throughput": ["BENCH_sim_throughput.json"],
}

# Extra environment per bench: the service benches and the arbiter-scaling
# sweep are pinned at smoke size.
BENCH_ENV = {
    "bench_service_load": {"RCARB_SERVICE_SMOKE": "1"},
    "bench_service_faults": {"RCARB_SERVICE_SMOKE": "1"},
    "bench_arbiter_scaling": {"RCARB_SCALING_SMOKE": "1"},
}


def checksum_notes(report):
    """The wide-lane checksum notes; the rest of the report is host rates."""
    return {"notes": {key: value for key, value in report["notes"].items()
                      if key.startswith("checksum_")}}


# Per-bench key filter over a parsed report, for benches whose reports are
# mostly host-dependent.
KEY_FILTER = {
    "bench_sim_throughput": checksum_notes,
}

HOST_KEYS = ("wall_ms", "timestamp_utc", "commit")
# Notes that name the host rather than a modelled value: simd_tier is the
# host's SIMD tier (or $RCARB_SIMD), so keeping it would fail every golden
# of a bench that writes it on a host without that tier.
HOST_NOTES = ("simd_tier",)
MAX_LISTED = 60


def canonical(path, bench):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    if isinstance(report, dict):
        for key in HOST_KEYS:
            report.pop(key, None)
        for key in HOST_NOTES:
            report.get("notes", {}).pop(key, None)
    if bench in KEY_FILTER:
        report = KEY_FILTER[bench](report)
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def run_bench(binary, out_dir):
    env = dict(os.environ, RCARB_JOBS="4", RCARB_BENCH_DIR=out_dir,
               RCARB_GIT_COMMIT="golden")
    env.update(BENCH_ENV.get(os.path.basename(binary), {}))
    proc = subprocess.run(
        [os.path.abspath(binary), "--benchmark_filter=NONE"], cwd=out_dir,
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{binary} exited with {proc.returncode}")


def changes(old, new, path=""):
    """Yields (key path, old value, new value) for every differing leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in old:
                yield sub, "<absent>", new[key]
            elif key not in new:
                yield sub, old[key], "<absent>"
            else:
                yield from changes(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(old):
                yield sub, "<absent>", new[i]
            elif i >= len(new):
                yield sub, old[i], "<absent>"
            else:
                yield from changes(old[i], new[i], sub)
    elif old != new:
        yield path, old, new


def check(binary):
    name = os.path.basename(binary)
    if name not in BENCHES:
        raise SystemExit(f"no goldens registered for {name}")
    failed = False
    with tempfile.TemporaryDirectory() as out_dir:
        run_bench(binary, out_dir)
        for report in BENCHES[name]:
            got = canonical(os.path.join(out_dir, report), name)
            with open(os.path.join(HERE, report), encoding="utf-8") as f:
                want = f.read()
            if got == want:
                print(f"{report}: matches its golden")
                continue
            failed = True
            diff = list(changes(json.loads(want), json.loads(got)))
            print(f"{report}: {len(diff)} key(s) changed (old -> new)")
            for key, old, new in diff[:MAX_LISTED]:
                print(f"  {key}: {json.dumps(old)} -> {json.dumps(new)}")
            if len(diff) > MAX_LISTED:
                print(f"  ... and {len(diff) - MAX_LISTED} more")
    return 1 if failed else 0


def update(build_dir):
    for name, reports in BENCHES.items():
        binary = os.path.join(build_dir, "bench", name)
        with tempfile.TemporaryDirectory() as out_dir:
            run_bench(binary, out_dir)
            for report in reports:
                with open(os.path.join(HERE, report), "w",
                          encoding="utf-8") as f:
                    f.write(canonical(os.path.join(out_dir, report), name))
                print(f"wrote tests/golden/{report}")
    return 0


def main(argv):
    if len(argv) != 3 or argv[1] not in ("check", "update"):
        raise SystemExit(__doc__)
    return check(argv[2]) if argv[1] == "check" else update(argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
