//! Microbenchmark host for the ShadowBinding reproduction.
//!
//! This crate intentionally exports nothing: it exists to own the
//! criterion-style benches under `benches/` (run with `cargo bench -p
//! sb-bench`), which measure the pieces the rest of the workspace
//! depends on for speed:
//!
//! * `components` — scheme mechanisms and simulator substrates in
//!   isolation: the STT-Rename same-cycle taint chain across rename
//!   widths, the STT-Issue taint-unit lookup across PRF sizes, broadcast
//!   queue drains at RTL vs. unbounded bandwidth, cache-hierarchy access
//!   paths, and whole-core cycle throughput per scheme.
//! * `figures` / `ablations` — end-to-end experiment-engine paths at
//!   reduced trace lengths, so regressions in the figure pipeline show
//!   up before a full `sb-experiments` run.
//!
//! The `criterion` dependency is the workspace's offline shim
//! (`crates/shims/criterion`), API-compatible with the real crate for
//! the subset used here; `CRITERION_SHIM_MS` bounds each measurement
//! window (CI uses a short window as a smoke test).

#![forbid(unsafe_code)]
