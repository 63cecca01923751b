# Developer entry points; `make ci` mirrors .github/workflows/ci.yml.

.PHONY: ci build test test-all examples sanitize race golden shard audit sym sym-drift trace trace-smoke trace-drift trace-gate analyze doc fmt clippy clippy-race bench bench-smoke bench-pricing pricing-smoke pricing-gate

# Same steps, same order as the workflow.
ci: build test-all examples audit sym sym-drift trace-smoke trace-drift bench-smoke pricing-smoke doc fmt clippy clippy-race

build:
	cargo build --release

test:
	cargo test -q

# Every crate's unit tests and proptests, not only the root package.
test-all:
	cargo test --workspace -q

# `cargo test` only compiles the examples; run the ones that print
# predictions.
examples:
	cargo run --release --example quickstart
	cargo run --release --example model_shootout
	cargo run --release --example custom_machine

sanitize:
	cargo test -q --test sanitizer

race:
	cargo test -q --test race

golden:
	cargo test -q --test golden

# Sharded-exchange bit-identity sweep (families x machines x shard counts).
shard:
	cargo test -q --test exchange_shard

# Static schedule audit: full sweep + machine-readable findings report.
audit:
	cargo run --release -p pcm-audit --bin pcm-audit -- --out AUDIT_report.json

# Symbolic model verification: certify every closed form (units, domains,
# dominance, differential, leading terms, crossovers) + findings report.
sym:
	cargo run --release -p pcm-sym --bin pcm-sym -- --out SYM_report.json

# The committed symbolic report must regenerate byte-identically.
sym-drift:
	git diff --exit-code SYM_report.json

# Superstep tracing: replay the pinned grid with tracing on, prove exact
# cost attribution, regenerate TRACE_report.json and a Chrome/Perfetto
# trace (TRACE_chrome.json, not committed — it carries wall-clock args).
trace:
	cargo run --release -p pcm-trace --bin pcm-trace -- --export chrome

# Fast replay subset: exact attribution on two families; writes a
# throwaway report.
trace-smoke:
	cargo run --release -p pcm-trace --bin pcm-trace -- --fast --out /tmp/TRACE_fast.json

# The committed attribution report must regenerate byte-identically.
trace-drift:
	cargo run --release -p pcm-trace --bin pcm-trace
	git diff --exit-code TRACE_report.json

# Tracing gates: bit-identical attribution + zero perturbation, the
# zero-allocation hot path with tracing ON, and report drift.
trace-gate: trace-drift
	cargo test -q --test trace
	cargo test -q --test hotpath_alloc

# Every static analyzer in one pass.
analyze: sanitize race audit sym trace-gate

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The recorded microbenchmark report (BENCH_simulator.json), thread
# ladder included.
bench:
	cargo run --release -p pcm-bench --bin bench-report

# Fast sanity pass over every bench kernel plus the thread-scaling ladder
# (re-executes the bench binary with RAYON_NUM_THREADS pinned to each
# rung); writes no report.
bench-smoke:
	cargo run --release -p pcm-bench --bin bench-report -- --smoke

# The pricing fast-path rows alone (route warm/cold per machine, router
# fast/slow path), full-length samples; writes no report.
bench-pricing:
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_warm/MasPar
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_cold/MasPar
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_warm/GCel
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/route_warm/CM-5
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/router_fastpath/1024
	cargo run --release -p pcm-bench --bin bench-report -- --child pricing/router_slowpath/1024

# One warm-memo route row under the smoke time budget.
pricing-smoke:
	cargo run --release -p pcm-bench --bin bench-report -- --smoke --child pricing/route_warm/MasPar

# Route-memo differential gate: memo on vs off must be bit-identical, and
# the rewritten router must match the reference implementation.
pricing-gate:
	cargo test -q --test pricing_memo
	cargo test -q --test router_delta

fmt:
	cargo fmt --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# pcm-race carries #![warn(clippy::pedantic)] in-crate; -D warnings
# promotes it without leaking pedantic into dependency crates.
clippy-race:
	cargo clippy -p pcm-race --all-targets -- -D warnings
