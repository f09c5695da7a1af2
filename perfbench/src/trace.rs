//! The benchmark's own tracing: spans recorded around the public calls
//! it makes, kept in memory and written out when the run ends.
//!
//! Two recorders feed it: the load generator (one span per task, per
//! SUBMIT batch and per STATUS round) and [`TimedService`], a
//! `DeviceService` decorator the runtime is built over. Both record only
//! while tracing is switched on, so an untraced window pays one relaxed
//! atomic load per call.

use occam::emunet::{DeviceService, FuncArgs, FuncResult};
use occam::obs::Histogram;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the run's epoch.
pub struct Span {
    pub kind: &'static str,
    /// Gateway ticket for client spans, 0 where there is none.
    pub ticket: u64,
    /// Client spans: the batch or round this span belongs to; device
    /// spans: the number of devices in the call.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub label: String,
}

/// The in-memory span store shared by every recorder of one run.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Writes every span as TSV to `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tticket\tparent\tstart_ns\tend_ns\tlabel")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.kind, s.ticket, s.parent, s.start_ns, s.end_ns, s.label
            )?;
        }
        out.flush()
    }
}

/// Device-plane timing decorator: forwards every call to the wrapped
/// service and, while tracing, times it into a histogram and a span.
pub struct TimedService {
    inner: Arc<dyn DeviceService>,
    tracer: Arc<Tracer>,
    /// Device calls made while tracing.
    pub calls: AtomicU64,
    /// Wall time of device calls made while tracing.
    pub call_ns: Histogram,
}

impl TimedService {
    pub fn new(inner: Arc<dyn DeviceService>, tracer: Arc<Tracer>) -> TimedService {
        TimedService {
            inner,
            tracer,
            calls: AtomicU64::new(0),
            call_ns: Histogram::new(),
        }
    }
}

impl DeviceService for TimedService {
    fn execute(&self, func: &str, devices: &[String], args: &FuncArgs) -> FuncResult {
        if !self.tracer.enabled() {
            return self.inner.execute(func, devices, args);
        }
        let start = Instant::now();
        let result = self.inner.execute(func, devices, args);
        let end = Instant::now();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.call_ns.record_duration(end - start);
        self.tracer.record(Span {
            kind: "device",
            ticket: 0,
            parent: devices.len() as u64,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
            label: func.to_string(),
        });
        result
    }

    fn advance(&self, ticks: u64) {
        self.inner.advance(ticks);
    }

    /// Downcasts reach the wrapped emulator, so fault injection and the
    /// update planner's topology lookup see through the decorator.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}
