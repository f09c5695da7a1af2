//! Runtime observability for the Occam reproduction: counters, latency
//! histograms, span timing, and a bounded structured event log.
//!
//! The paper's entire evaluation (Figs. 8–10) reports *observed* runtime
//! behaviour — task wait times, queue depths, SCHED invocation latency,
//! object-tree maintenance cost. This crate is the single instrumentation
//! source those numbers flow through, replacing the ad-hoc stat structs
//! each bench binary used to scrape. It is built from scratch on `std`
//! atomics plus the `parking_lot` shim — no external dependencies, no
//! `serde` (all export formats are hand-written).
//!
//! # Instruments
//!
//! - [`Counter`] — a lock-free monotonic `u64`, cheap to clone and share.
//! - [`Histogram`] — a fixed-size log-scale (HDR-style) latency histogram
//!   with exact count/sum/min/max and bucketed p50/p90/p99 readout.
//! - [`Span`] — an RAII timer recording its elapsed time into a
//!   [`Histogram`] on drop (monotonic clock, thread-safe).
//! - [`EventRing`] — a bounded ring of structured [`Event`]s (task
//!   lifecycle, lock grant/wait/release, WAL appends, rollback plans).
//! - [`Registry`] — a named get-or-create collection of the above with
//!   TSV/JSON export; cloning is cheap (`Arc`) so one registry threads
//!   through a whole runtime or simulation run.
//!
//! # Naming contract
//!
//! Instrument names are dotted lowercase paths, `<crate>.<noun>[.<sub>]`,
//! with histogram units suffixed (`_ns` for wall-clock nanoseconds, `_mh`
//! for simulated milli-hours). The full contract — every name, unit, and
//! emitting call site — is documented in `DESIGN.md` §9 at the repository
//! root; `metrics_dump` (in `occam-bench`) emits a `BENCH_obs.json`
//! exercising every instrument.
//!
//! # Example
//!
//! ```
//! use occam_obs::{Registry, Span};
//!
//! let reg = Registry::new();
//! reg.counter("demo.requests").inc();
//! {
//!     let _span = Span::start(&reg.histogram("demo.latency_ns"));
//!     // ... timed work ...
//! }
//! assert_eq!(reg.counter("demo.requests").get(), 1);
//! assert_eq!(reg.histogram("demo.latency_ns").count(), 1);
//! println!("{}", reg.to_json());
//! ```
#![deny(missing_docs)]

mod counter;
mod histogram;
mod registry;
mod ring;
mod span;

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use registry::Registry;
pub use ring::{Event, EventKind, EventRing};
pub use span::Span;

/// Escapes a string for inclusion in a hand-written JSON document.
///
/// Handles the two characters that can actually appear in instrument and
/// task names (`"` and `\`) plus control characters, which become `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
