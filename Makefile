# Convenience targets for the SSD-Insider reproduction.
#
#   make tier1       — the gating check: `cargo build --release && cargo
#                      test -q` plus a zero-warning clippy pass. The root
#                      manifest's `default-members = [".", "crates/*"]` makes
#                      those bare commands cover the umbrella package and
#                      every product crate — the whole suite (unit
#                      tests, differential oracles, proptests, the
#                      strided crash sweep and the bench smokes; `cargo
#                      test` prints the count), about a minute warm — and
#                      leave out only `vendored/*`, the offline dependency
#                      stand-ins.
#   make ci          — the full offline CI gate (what .github/workflows/ci.yml
#                      runs): clock-guard, tier1, then the benchmark package built
#                      against the tree (`benchmark/` is a crate no product
#                      PR edits, so an API deletion that breaks it fails
#                      here, in the first minutes), rustfmt check, clippy
#                      over all targets, rustdoc with warnings denied (a
#                      deleted item cannot leave a doc link pointing at it),
#                      the block-cache oracle, the recovery-queue model test,
#                      the device-lifecycle fuzz, the FTL's remount,
#                      GC-torture and victim-index properties
#                      (`crash_remount`, `gc_torture`, `victim_index_oracle`),
#                      the whole-stack rollback and FTL data-integrity
#                      properties (`rollback_oracle`, `ftl_data_integrity`)
#                      and the NAND scheduler model (`sched_model`) once
#                      more, each on a seed taken from the clock
#                      (`CACHE_ORACLE_SEED`, `QUEUE_MODEL_SEED`,
#                      `PROPTEST_RNG_SEED` — the last shared by the seven
#                      proptest suites — echoed first so a failure can be
#                      replayed; tier1 already ran their fixed seeds), then
#                      seed-sweep,
#                      bounded crash-sweep / ROC smoke runs
#                      (env bounds below; smoke JSON goes to target/ci/, never
#                      touching the committed artifacts), then bench_check
#                      validating the committed BENCH_roc.json schema and
#                      headline rates, then the end-to-end benchmark's own
#                      self-tests and a `benchmark/run.sh --quick` smoke run
#                      (all four workloads, both passes, every byte verified;
#                      builds into benchmark/target/), then gc-guard and
#                      rss-guard. No network needed: deps are vendored.
#   make gc-guard    — the one full-size benchmark run in CI: `--quick`
#                      divides operation counts by ten and never collects on
#                      `dev-churn-gc`, so this runs that workload whole
#                      (seed 1, three repetitions, ~10 s) and fails unless
#                      its result line says correct, no failed operation and
#                      `write_amp` < 2 (1.155 with score-first victim
#                      selection, 11.2 with the chip-first order it replaced).
#   make rss-guard   — the same full-size `dev-churn-gc` run, failing unless
#                      its result line says correct, no failed operation and
#                      `peak_rss_mib` < 34 (≈ 30 with 57-byte struct-of-arrays
#                      flash pages, ≈ 35 with the 80-byte page structs they
#                      replaced, ≈ 44 with 16-byte page-table entries), so a
#                      widened page table or page store fails CI.
#   make seed-sweep  — the clock-seeded properties that were green on 200
#                      seeds when they joined, each run on SEED_SWEEP (32)
#                      consecutive seeds from one clock base in the release
#                      test profile; prints every failing seed as
#                      `PROPTEST_RNG_SEED=<seed>` and exits non-zero if any
#                      failed. Today those are the one-pass mount's
#                      differential oracle (the `insider::mount::oracle` unit
#                      tests of insider-ftl, ~0.2 s a seed), the
#                      counting-table differential oracle
#                      (`differential_table` of insider-bench) and the
#                      counting table's per-LBA model (`counting_model` of
#                      insider-detect). Replay a seed with
#                      `PROPTEST_RNG_SEED=<seed> cargo test` and the
#                      arguments SWEEP_PROPS lists for the property, e.g.
#                      `-p insider-ftl --lib mount::oracle`.
#   make clock-guard — fails if `std::time` appears under the src/ of a
#                      crate that must read no wall clock (CLOCK_FREE
#                      below): product statistics are sim and count values,
#                      and wall time is measured by the harness (fig8,
#                      benchmark/). `ftl` joins the list once
#                      `FtlStats::gc_ns` is gone.
#   make test        — alias of tier-1's `cargo test -q` (same suite).
#   make bench       — criterion micro-benchmarks.
#   make crash-sweep — exhaustive stride-1 power-loss sweep: every
#                      program/erase boundary of three traces with and
#                      without retention, plus the filesystem
#                      attack/crash/rollback scenario.
#                      (Tier 1 runs a strided fast version as a plain test.)
#   make bench-roc   — regenerate BENCH_roc.json (run-level TPR/FPR/latency
#                      threshold sweeps for the baseline and evolved detector
#                      variants over the three paper ransomware classes, the
#                      four adversarial families, and the 15-app benign pool;
#                      ROC_TRACES / ROC_PAGES bound the sweep for smoke runs.
#                      Delete target/insider-tree-*.json or set
#                      INSIDER_RETRAIN=1 after changing generators/trainer.
#                      bench_check gates the committed artifact's TPR floors.)
#
# Env knobs (all optional):
#   CRASH_SWEEP_STRIDE / CRASH_SWEEP_PAGES / CRASH_SWEEP_FS_POINTS
#                      — crash-sweep density: cut-point stride, per-trace
#                        write budget, filesystem-scenario cut points.
#   (Block buffer cache capacity is an API knob, not env:
#    FsBridge::cached(capacity) / BlockCache::new(dev, capacity).)
#   ROC_TRACES / ROC_PAGES
#                      — bench sweep bounds.

CARGO ?= cargo

# Bounds for the CI smoke runs: dense enough to reach every code path,
# small enough to finish in seconds.
CI_SWEEP_ENV = CRASH_SWEEP_STRIDE=41 CRASH_SWEEP_PAGES=160 CRASH_SWEEP_FS_POINTS=6
CI_ROC_ENV = ROC_TRACES=1

.PHONY: tier1 ci clock-guard seed-sweep gc-guard rss-guard test bench crash-sweep bench-roc

tier1:
	$(CARGO) build --release
	$(CARGO) test -q
	$(CARGO) clippy --release --workspace -- -D warnings

ci: clock-guard tier1
	cd benchmark && $(CARGO) build --release --offline
	$(CARGO) fmt --all -- --check
	$(CARGO) clippy --release --workspace --all-targets -- -D warnings
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --document-private-items
	@seed=$$(date +%s); echo "CACHE_ORACLE_SEED=$$seed"; \
	CACHE_ORACLE_SEED=$$seed $(CARGO) test -q -p insider-fs --test cache_oracle
	@seed=$$(date +%s); echo "QUEUE_MODEL_SEED=$$seed"; \
	QUEUE_MODEL_SEED=$$seed $(CARGO) test -q -p insider-ftl --test recovery_queue_model
	@seed=$$(date +%s); echo "PROPTEST_RNG_SEED=$$seed"; \
	PROPTEST_RNG_SEED=$$seed $(CARGO) test -q -p ssd-insider --test state_machine && \
	PROPTEST_RNG_SEED=$$seed $(CARGO) test -q -p insider-ftl --test crash_remount --test gc_torture \
		--test victim_index_oracle && \
	PROPTEST_RNG_SEED=$$seed $(CARGO) test -q -p ssd-insider-repro --test rollback_oracle --test ftl_data_integrity && \
	PROPTEST_RNG_SEED=$$seed $(CARGO) test -q -p insider-nand --test sched_model
	$(MAKE) seed-sweep
	mkdir -p target/ci
	$(CI_SWEEP_ENV) $(CARGO) run --release -p insider-bench --bin crash_sweep
	$(CI_ROC_ENV) $(CARGO) run --release -p insider-bench --bin bench_roc target/ci/BENCH_roc.json
	$(CARGO) run --release -p insider-bench --bin bench_check
	cd benchmark && $(CARGO) test --release --offline
	bash benchmark/run.sh --quick
	$(MAKE) gc-guard
	$(MAKE) rss-guard

SEED_SWEEP = 32

# The swept properties, one `name|cargo test arguments` word each.
SWEEP_PROPS = \
	"mount::oracle|-p insider-ftl --lib mount::oracle" \
	"differential_table|-p insider-bench --test differential_table" \
	"counting_model|-p insider-detect --test counting_model"

seed-sweep:
	@for prop in $(SWEEP_PROPS); do \
		$(CARGO) test --release -q $${prop#*|} --no-run || exit 1; \
	done
	@base=$$(date +%s); last=$$((base + $(SEED_SWEEP) - 1)); failed=0; \
	for prop in $(SWEEP_PROPS); do \
		name=$${prop%%|*}; \
		echo "seed-sweep: $$name on PROPTEST_RNG_SEED=$$base..$$last"; \
		for seed in $$(seq $$base $$last); do \
			PROPTEST_RNG_SEED=$$seed $(CARGO) test --release -q $${prop#*|} \
				>/dev/null 2>&1 || { echo "seed-sweep: $$name fails on PROPTEST_RNG_SEED=$$seed" >&2; failed=$$((failed + 1)); }; \
		done; \
	done; \
	if [ $$failed -gt 0 ]; then echo "seed-sweep: $$failed failing runs" >&2; exit 1; fi

CLOCK_FREE = nand detect core fs workloads

clock-guard:
	@hits="$$(grep -rn 'std::time' $(CLOCK_FREE:%=crates/%/src))"; \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; \
		echo "clock-guard: crates $(CLOCK_FREE) must read no wall clock (std::time under src/); time it from the harness" >&2; \
		exit 1; \
	fi

gc-guard:
	@line="$$(bash benchmark/run.sh --workload dev-churn-gc --seed 1 --seconds 1 --trace 0 | tail -n 1)"; \
	echo "$$line"; \
	wa="$$(echo "$$line" | sed -n 's/.*"write_amp": *{"value": *\([0-9.e+-]*\).*/\1/p')"; \
	if [ -z "$$wa" ]; then echo "gc-guard: no write_amp in the result line: the report format moved, not GC" >&2; exit 1; fi; \
	echo "$$line" | grep -Eq '"correct": *true' \
		&& echo "$$line" | grep -Eq '"failed": *0[,}]' \
		&& awk -v wa="$$wa" 'BEGIN { exit !(wa + 0 < 2) }' \
		|| { echo "gc-guard: want correct, failed 0 and write_amp < 2 on dev-churn-gc (got write_amp $$wa)" >&2; exit 1; }

rss-guard:
	@line="$$(bash benchmark/run.sh --workload dev-churn-gc --seed 1 --seconds 1 --trace 0 | tail -n 1)"; \
	echo "$$line"; \
	rss="$$(echo "$$line" | sed -n 's/.*"peak_rss_mib": *{"value": *\([0-9.e+-]*\).*/\1/p')"; \
	if [ -z "$$rss" ]; then echo "rss-guard: no peak_rss_mib in the result line: the report format moved, not memory" >&2; exit 1; fi; \
	echo "$$line" | grep -Eq '"correct": *true' \
		&& echo "$$line" | grep -Eq '"failed": *0[,}]' \
		&& awk -v rss="$$rss" 'BEGIN { exit !(rss + 0 < 34) }' \
		|| { echo "rss-guard: want correct, failed 0 and peak_rss_mib < 34 on dev-churn-gc (got peak_rss_mib $$rss)" >&2; exit 1; }

test:
	$(CARGO) test -q

bench:
	$(CARGO) bench -p insider-bench

crash-sweep:
	$(CARGO) run --release -p insider-bench --bin crash_sweep

bench-roc:
	$(CARGO) run --release -p insider-bench --bin bench_roc
