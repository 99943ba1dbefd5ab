# Developer entry points. `just check` is the gate CI and pre-commit use.

# Build, test and lint everything, exactly as the release gate does.
check:
    cargo build --release
    cargo test -q
    cargo clippy -- -D warnings

# The full CI gate: release build, workspace tests (with the parallel-fuzz
# differential, golden-report, fault-matrix and quirk-matrix suites named
# explicitly so a filter change can't silently drop them — the fault matrix
# smokes every fault kind on fig11 and asserts same-seed degraded reports
# replay byte-identically; the quirk matrix injects every DUT misbehavior
# kind and asserts the conformance oracle flags each with its expected
# violation class), the device matrix (cross-NIC registry sweep:
# worker-count determinism, plain-run parity, per-profile calibration
# signatures and the differential-report golden), the panic guard (no
# unwrap/expect on capture-derived paths), the frame-plane hotpath smoke (asserts the identical-outcome
# column and the copy-reduction bar), the trace-determinism suite plus a
# live `trace` smoke with Perfetto export, the coverage-fuzzing suites
# (serial==parallel differential over map/corpus/reproducers; the 9-knob
# quirk sweep with the 2x fixed-budget acceptance) plus a live
# `fuzz-coverage` smoke through the CLI corpus-persistence path, the bench
# gate (fails on >20% regression against the newest committed
# BENCH_*.json), the pcap round-trip corpus (every preset re-ingests to
# its live verdict) plus a live `ingest` smoke through the CLI, the
# chaos/soak suite (noop-chaos byte-identity, the chaos×quirks
# cross-matrix, the recovery-oracle property tests) plus a live `soak`
# smoke sweeping every preset under generated chaos schedules, the TX-scan
# scaling test (RNIC scheduling work per packet flat from 36 to 1000 QPs),
# lint with warnings fatal.
ci:
    cargo build --release
    cargo test -q
    cargo test -q --test fuzz_parallel_differential
    cargo test -q --test fuzz_coverage_differential
    cargo test -q --test fuzz_quirk_coverage
    cargo test -q --test golden_reports
    cargo test -q --test fault_matrix
    cargo test -q --test quirk_matrix
    cargo test -q --test device_matrix
    cargo test -q --test panic_guard
    cargo test -q --test trace_determinism
    cargo test -q --test ingest_roundtrip
    cargo test -q --test chaos_soak
    cargo test -q --test tx_scan_scaling
    cargo test -q -p lumina-bench hotpath
    just trace
    just fuzz-coverage
    just matrix
    just ingest
    just soak
    just bench-gate
    cargo clippy -- -D warnings

# Fast feedback loop: debug build + tests.
test:
    cargo test --workspace -q

# Lint the whole workspace, warnings fatal.
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Run one test config end to end and show the human report.
demo config="configs/listing2.yaml":
    cargo run --release -p lumina-core --bin lumina-cli -- {{config}}

# Dump the telemetry journal + per-node metrics for a config.
telemetry config="configs/listing2.yaml":
    cargo run --release -p lumina-core --bin lumina-cli -- telemetry --config {{config}}

# Per-packet latency dissection with Perfetto export (load the JSON at
# ui.perfetto.dev). Doubles as the CI smoke test for the tracing path.
trace config="configs/fig11_noisy_neighbor.yaml" out="perfetto.json":
    cargo run --release -p lumina-core --bin lumina-cli -- trace --config {{config}} --perfetto {{out}}

# Coverage-guided fuzzing smoke: a short campaign on the quirks demo with
# the quirk-knob mutation dimension, persisting the novelty corpus and the
# shrunk per-class reproducer YAMLs to a scratch dir. Doubles as the CI
# smoke for the coverage/shrink/corpus-persistence CLI path.
fuzz-coverage config="configs/quirks_demo.yaml" out="target/fuzz-corpus":
    mkdir -p {{out}}
    cargo run --release -p lumina-core --bin lumina-cli -- fuzz --config {{config}} --corpus-dir {{out}} --quirk-knobs --generations 4 --batch 4 --seed 7 > {{out}}/findings.jsonl

# Cross-NIC behavior matrix: the demo scenario swept over the whole
# device registry, with per-cell conformance verdicts and the
# cross-device behavior diffs. Doubles as the CI smoke for the
# device-registry + matrix CLI path (byte-identical for any --workers).
matrix config="configs/matrix_demo.yaml":
    cargo run --release -p lumina-core --bin lumina-cli -- matrix --config {{config}} --workers 4

# Real-capture ingestion smoke: run the fig11 preset with pcap export,
# then grade the capture offline. `ingest` exits 0 only when the offline
# verdict is compliant AND the file re-ingested pristine, so this recipe
# failing means the export→ingest round trip no longer reproduces the
# live verdict. Doubles as the CI smoke for the pcap → frame-recovery →
# streaming-reconstruction → discovery-conformance path.
ingest config="configs/fig11_noisy_neighbor.yaml" out="target/ingest-smoke.pcap":
    cargo run --release -p lumina-core --bin lumina-cli -- {{config}} --pcap {{out}}
    cargo run --release -p lumina-core --bin lumina-cli -- ingest --pcap {{out}} --config {{config}}

# Deterministic chaos soak: every preset swept under generated chaos
# schedules (link flaps, pause storms, loss/corruption/reorder bursts),
# each run graded by the liveness/recovery oracle; exits 11 on a proven
# wedge. Byte-identical output for any --workers value. Doubles as the
# CI smoke for the chaos-plane + soak CLI path. The chaos_demo preset is
# skipped by design: it declares its own schedule (and its flap is
# *supposed* to wedge — run it with `just demo configs/chaos_demo.yaml`).
soak configs="configs" scenarios="2" workers="4":
    cargo run --release -p lumina-core --bin lumina-cli -- soak --configs {{configs}} --scenarios {{scenarios}} --workers {{workers}}

# Compare current performance against the newest committed BENCH_*.json;
# exits 1 on a >20% regression. Record a new baseline with
# `cargo run --release -p lumina-bench --bin bench-gate -- --write BENCH_<date>.json`.
bench-gate:
    cargo run --release -p lumina-bench --bin bench-gate

# One run of the repository benchmark (BENCHMARK.json's command), so A/B
# comparisons use one spelling. Prints the end-to-end metrics, then the
# `digest <workload> <hex>` line a behaviour-preserving change must keep.
lumbench workload="fanout" seed="1" seconds="25":
    cargo run --release --offline --quiet --manifest-path lumbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace 0

# Criterion-style benchmarks (shimmed harness; wall-clock smoke numbers).
bench:
    cargo bench -p lumina-bench
