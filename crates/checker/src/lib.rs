#![forbid(unsafe_code)]
//! Deterministic-schedule model checker for the repo's concurrency
//! invariants.
//!
//! PR 6 rebuilt `StreamingRasterJoin` around a chunk-parallel pool whose
//! **bitwise determinism** — counts identical, sums bitwise equal to the
//! sequential scan at any worker count — is the foundation the query
//! cache and the always-on server build on. That guarantee rests on three
//! small protocols:
//!
//! 1. the **seq-tagged ring + reorder buffer** (no chunk lost, duplicated
//!    or folded out of order; the scan canvas replayed in chunk order and
//!    resolved once, after the last chunk) — [`models::RingModel`];
//! 2. the **shard merge** (accumulate races nothing, merge runs strictly
//!    after the scope join) — [`models::ShardModel`];
//! 3. the **FBO pool** (recycled canvases are exclusively owned and
//!    cleared; the free list never aliases) — [`models::PoolModel`];
//! 4. the **first-error shutdown** (any fault placement terminates, the
//!    error wins over partial results, no resolve after an error, the
//!    scan canvas and every chunk are fully accounted) —
//!    [`models::ErrModel`].
//!
//! CI runs on few cores, where real interleavings rarely happen; the
//! checker explores them *synthetically*. [`sched::Explorer`] drives each
//! model through every bounded-preemption interleaving of its atomic
//! operations (thousands of schedules per model in well under a second)
//! and reports the exact reproducing schedule on any violation.
//!
//! Trustworthiness is itself tested: every model carries seeded-bug
//! variants (`RingBug`, `ShardBug`, `PoolBug`, `ErrBug`) re-creating real
//! bugs — lost chunk, dropped seq tag, out-of-order fold, out-of-order
//! canvas replay, resolve before the last chunk, merge-before-join, shared-shard RMW, early recycle, double recycle,
//! skipped clear, fold-after-error, leaked canvas, swallowed error,
//! missing shutdown unblock — and
//! `tests/mutation_gate.rs` fails the build unless the checker catches
//! **each one**. A checker that stops seeing seeded bugs is broken, not
//! lucky.
//!
//! The full invariant inventory — which tool checks what — lives in
//! `docs/INVARIANTS.md`.
//!
//! Run the suite standalone (also wired into CI's `lint-and-check` job):
//!
//! ```text
//! cargo run --release -p checker --bin modelcheck
//! ```

pub mod models;
pub mod sched;
pub mod shim;

pub use sched::{Explorer, Model, Report, Step, Violation};
