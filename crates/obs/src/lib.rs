//! `obs` — structured tracing and metrics for the EasyTracker suite.
//!
//! One [`Registry`] instance is shared (via cheap `Clone`) by every
//! instrumented layer: trackers time their control calls as [`Span`]s,
//! the MI client records per-command roundtrip [`Histogram`]s, engines
//! and VMs bump [`Counter`]s. Attached [`Sink`]s receive every finished
//! span as a Chrome trace event, so the same instrumentation yields
//! both aggregate statistics ([`Snapshot`]) and a loadable profile
//! timeline ([`ChromeTraceSink`]).
//!
//! Metric names follow `layer.component.metric[.detail]`, e.g.
//! `tracker.control.step`, `mi.client.roundtrip.GetState`,
//! `vm.minic.heap.allocs`. Dots group related series in reports.
//!
//! Everything is `std`-only: `Mutex`/atomics for sharing,
//! `Instant` for monotonic time.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

pub mod flight;
pub mod hist;
pub mod profile;
pub mod session;
pub mod sink;
pub mod telemetry;

pub use flight::{
    extract_last_gasp, FlightDump, FlightEntry, FlightLog, FlightRecorder, STDERR_MARKER,
};
pub use hist::{HistStats, Histogram};
pub use profile::{
    AllocSiteProfile, FuncProfile, LineProfile, ProfileMode, ProfileReport, Profiler, StackProfile,
};
pub use session::Session;
pub use sink::{ChromeTraceSink, ExportSink, JsonLinesSink, RingSink, Sink, TraceEvent};
pub use telemetry::{
    collect_frame, merge_chrome_trace, save_merged_trace, ClockSync, TelemetryFrame, WireHistogram,
    ENGINE_PID, TRACKER_PID,
};

/// A monotonically increasing event counter, cheap to clone and bump
/// from any thread.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An absolute reading, overwritten on every report (e.g. "VM executed
/// N ops total", "live heap bytes").
///
/// Gauges are deliberately a distinct type from [`Counter`]: a counter
/// only ever accumulates increments, so snapshot deltas and merged
/// cross-process metrics can sum counters freely, while a gauge's latest
/// value replaces the previous one and must never be added twice.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrites the reading.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct RegistryInner {
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    sinks: Mutex<Vec<Arc<dyn Sink>>>,
    /// Lock-free mirror of `sinks.len()`, so the span hot path can skip
    /// trace-event construction entirely when nothing is listening.
    sink_count: AtomicUsize,
    tids: Mutex<HashMap<ThreadId, u64>>,
}

/// Shared hub for counters, histograms, spans, and sinks.
///
/// Cloning a `Registry` clones a handle to the same underlying data,
/// so one registry can be threaded through trackers, MI client/server
/// pairs, and VM engines while every layer reports to the same place.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.inner.counters.lock().unwrap().len())
            .field("histograms", &self.inner.histograms.lock().unwrap().len())
            .field("sinks", &self.inner.sinks.lock().unwrap().len())
            .finish()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                sinks: Mutex::new(Vec::new()),
                sink_count: AtomicUsize::new(0),
                tids: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Process-wide default registry, for tools (like the interactive
    /// debugger) that have no natural place to thread one through.
    pub fn global() -> Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new).clone()
    }

    /// Whether two handles share the same underlying registry.
    pub fn same_as(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    pub fn add_sink(&self, sink: Arc<dyn Sink>) {
        let mut sinks = self.inner.sinks.lock().unwrap();
        sinks.push(sink);
        self.inner.sink_count.store(sinks.len(), Ordering::Release);
    }

    /// Whether any sink is attached. Spans consult this before paying
    /// for trace-event construction, so a detached registry costs only
    /// the histogram update.
    pub fn has_sinks(&self) -> bool {
        self.inner.sink_count.load(Ordering::Acquire) != 0
    }

    /// Microseconds since this registry was created.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Small stable integer id for the calling thread.
    fn tid(&self) -> u64 {
        let mut tids = self.inner.tids.lock().unwrap();
        let next = tids.len() as u64 + 1;
        *tids.entry(std::thread::current().id()).or_insert(next)
    }

    // ---- counters ---------------------------------------------------------

    /// Returns the counter registered under `name`, creating it on
    /// first use. Only that first use allocates.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().unwrap();
        if let Some(counter) = counters.get(name) {
            return counter.clone();
        }
        counters
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
            .clone()
    }

    pub fn inc(&self, name: &str) {
        self.counter(name).inc();
    }

    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    // ---- gauges -----------------------------------------------------------

    /// Returns the gauge registered under `name`, creating it on first
    /// use (the only use that allocates). Gauges hold absolute readings;
    /// see [`Gauge`].
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().unwrap();
        if let Some(gauge) = gauges.get(name) {
            return gauge.clone();
        }
        gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge {
                cell: Arc::new(AtomicU64::new(0)),
            })
            .clone()
    }

    /// Overwrites the gauge reading under `name`.
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    // ---- histograms -------------------------------------------------------

    /// Records `value` in the histogram under `name`, creating it on
    /// first use (the only use that allocates).
    pub fn record_value(&self, name: &str, value: u64) {
        let mut histograms = self.inner.histograms.lock().unwrap();
        if let Some(histogram) = histograms.get_mut(name) {
            histogram.record(value);
            return;
        }
        histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records a duration in nanoseconds under `name`.
    pub fn record_duration(&self, name: &str, d: Duration) {
        self.record_value(name, d.as_nanos() as u64);
    }

    // ---- spans & events ---------------------------------------------------

    /// Opens a span. Dropping (or [`Span::finish`]ing) it records the
    /// elapsed time into the histogram of the same name and emits a
    /// complete (`ph: "X"`) trace event to every sink.
    ///
    /// Every span carries a [`TraceContext`]: a process-unique span id
    /// and the trace id it belongs to. The trace id is inherited from
    /// the enclosing span on this thread, or — when the thread has no
    /// open span but a remote context was installed with
    /// [`set_remote_context`] (the MI server does this from the frame
    /// envelope) — from the remote caller, making the new span a child
    /// of a span in another process. A span with neither starts a new
    /// trace rooted at itself.
    pub fn span(&self, name: impl Into<String>) -> Span {
        self.open(Cow::Owned(name.into()))
    }

    /// [`Registry::span`] for a fixed name: the span borrows it, so
    /// opening and closing it allocates nothing once its histogram exists
    /// and while no sink is attached.
    pub fn span_static(&self, name: &'static str) -> Span {
        self.open(Cow::Borrowed(name))
    }

    fn open(&self, name: Cow<'static, str>) -> Span {
        let span_id = next_span_id();
        let (trace_id, parent) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let link = match stack.last() {
                Some(frame) => (
                    frame.trace_id,
                    Parent::Local(frame.name.clone(), frame.span_id),
                ),
                None => match remote_context() {
                    Some(ctx) => (ctx.trace_id, Parent::Remote(ctx.span_id)),
                    None => (span_id, Parent::Root),
                },
            };
            stack.push(StackFrame {
                name: name.clone(),
                trace_id: link.0,
                span_id,
            });
            link
        });
        Span {
            registry: self.clone(),
            name,
            cat: Cow::Borrowed("span"),
            parent,
            trace_id,
            span_id,
            start: Instant::now(),
            start_us: self.now_us(),
            args: Vec::new(),
            finished: false,
        }
    }

    /// The context of the innermost span open on the calling thread, if
    /// any — what a cross-process caller should stamp onto an outgoing
    /// frame so remote spans join this trace.
    pub fn current_context(&self) -> Option<TraceContext> {
        SPAN_STACK.with(|stack| {
            stack.borrow().last().map(|f| TraceContext {
                trace_id: f.trace_id,
                span_id: f.span_id,
            })
        })
    }

    /// Emits an instant (`ph: "i"`) event.
    pub fn instant(&self, name: &str, args: &[(&str, &str)]) {
        if !self.has_sinks() {
            return;
        }
        self.emit(TraceEvent {
            name: name.to_string(),
            cat: "instant".into(),
            ph: 'i',
            ts_us: self.now_us(),
            dur_us: 0,
            pid: 1,
            tid: self.tid(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Emits a counter (`ph: "C"`) sample so the trace viewer can chart
    /// the series over time.
    pub fn counter_sample(&self, name: &str, value: u64) {
        if !self.has_sinks() {
            return;
        }
        self.emit(TraceEvent {
            name: name.to_string(),
            cat: "counter".into(),
            ph: 'C',
            ts_us: self.now_us(),
            dur_us: 0,
            pid: 1,
            tid: self.tid(),
            args: vec![("value".into(), value.to_string())],
        });
    }

    fn emit(&self, event: TraceEvent) {
        let sinks = self.inner.sinks.lock().unwrap();
        // Fan out by reference to all but the last sink, then hand the
        // event over by value: with one sink attached (the common case)
        // no clone happens at all.
        if let Some((last, rest)) = sinks.split_last() {
            for sink in rest {
                sink.record(&event);
            }
            last.record_owned(event);
        }
    }

    pub fn flush(&self) {
        let sinks = self.inner.sinks.lock().unwrap();
        for sink in sinks.iter() {
            let _ = sink.flush();
        }
    }

    // ---- reporting --------------------------------------------------------

    /// Copies out current counter values and histogram summaries.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Full-fidelity copies of every histogram (all buckets, not just
    /// the summary stats) — what the telemetry drain ships over the
    /// wire so the tracker side can merge distributions losslessly.
    pub fn export_histograms(&self) -> BTreeMap<String, Histogram> {
        self.inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// The cross-process identity of a span: which trace it belongs to and
/// which span it is. Stamped onto MI command frames so engine-side
/// spans can link back to the tracker-side span that caused them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u64,
}

/// Process-unique span id: the process id in the high 32 bits, a
/// monotonic sequence in the low 32. Two processes merging into one
/// trace therefore never collide.
fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Read once: asking the kernel costs a system call per span.
    static PID: OnceLock<u64> = OnceLock::new();
    let pid = *PID.get_or_init(|| u64::from(std::process::id()));
    let seq = NEXT.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    (pid << 32) | (seq & 0xffff_ffff)
}

struct StackFrame {
    name: Cow<'static, str>,
    trace_id: u64,
    span_id: u64,
}

enum Parent {
    Root,
    Local(Cow<'static, str>, u64),
    Remote(u64),
}

thread_local! {
    /// Spans currently open on this thread, innermost last; used to tag
    /// children with their parent span and propagate the trace id.
    static SPAN_STACK: RefCell<Vec<StackFrame>> = const { RefCell::new(Vec::new()) };

    /// Trace context received from another process, adopted by root
    /// spans opened on this thread while it is set.
    static REMOTE_CTX: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// Installs (or clears) the remote trace context for the calling
/// thread. The MI server sets this from the command frame's `trace`
/// field before dispatching to the engine and clears it after, so VM
/// spans opened while handling the command join the caller's trace.
pub fn set_remote_context(ctx: Option<TraceContext>) {
    REMOTE_CTX.with(|c| *c.borrow_mut() = ctx);
}

/// The remote trace context currently installed on this thread.
pub fn remote_context() -> Option<TraceContext> {
    REMOTE_CTX.with(|c| *c.borrow())
}

/// An open timed region. Ends on drop or explicit [`Span::finish`].
pub struct Span {
    registry: Registry,
    name: Cow<'static, str>,
    cat: Cow<'static, str>,
    parent: Parent,
    trace_id: u64,
    span_id: u64,
    start: Instant,
    start_us: u64,
    args: Vec<(String, String)>,
    finished: bool,
}

impl Span {
    /// Attaches a key/value tag emitted with the trace event (e.g. the
    /// `PauseReason` a control call returned). Only a trace event carries
    /// tags, so while no sink is attached the tag is dropped unbuilt.
    pub fn tag(&mut self, key: impl Into<String>, value: impl Into<String>) {
        if self.registry.has_sinks() {
            self.args.push((key.into(), value.into()));
        }
    }

    /// [`Span::tag`] with a value built only when a sink will receive it.
    pub fn tag_with(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if self.registry.has_sinks() {
            self.args.push((key.into(), value()));
        }
    }

    /// Overrides the event category (defaults to `"span"`).
    pub fn category(&mut self, cat: impl Into<Cow<'static, str>>) {
        self.cat = cat.into();
    }

    pub fn finish(mut self) {
        self.close();
    }

    /// This span's cross-process identity, e.g. to stamp onto frames
    /// sent while it is open.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        }
    }

    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last().is_some_and(|f| f.span_id == self.span_id) {
                stack.pop();
            }
        });
        let elapsed = self.start.elapsed();
        self.registry.record_duration(&self.name, elapsed);
        if !self.registry.has_sinks() {
            return;
        }
        let mut args = std::mem::take(&mut self.args);
        args.push(("trace_id".into(), self.trace_id.to_string()));
        args.push(("span_id".into(), self.span_id.to_string()));
        match std::mem::replace(&mut self.parent, Parent::Root) {
            Parent::Local(name, span) => {
                args.push(("parent".into(), name.into_owned()));
                args.push(("parent_span".into(), span.to_string()));
            }
            Parent::Remote(span) => {
                args.push(("parent_span".into(), span.to_string()));
            }
            Parent::Root => {}
        }
        let tid = self.registry.tid();
        self.registry.emit(TraceEvent {
            name: std::mem::take(&mut self.name).into_owned(),
            cat: std::mem::take(&mut self.cat).into_owned(),
            ph: 'X',
            ts_us: self.start_us,
            dur_us: elapsed.as_micros() as u64,
            pid: 1,
            tid,
            args,
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Point-in-time view of every metric in a registry.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistStats>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Counter value, or 0 when the counter never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge reading, or 0 when the gauge was never set.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn histogram(&self, name: &str) -> Option<&HistStats> {
        self.histograms.get(name)
    }

    /// Renders a fixed-width, three-section stats table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<44} {:>12}\n", "counter", "value"));
            out.push_str(&format!("{:-<44} {:->12}\n", "", ""));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<44} {value:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("{:<44} {:>12}\n", "gauge", "value"));
            out.push_str(&format!("{:-<44} {:->12}\n", "", ""));
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<44} {value:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "{:<44} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "histogram (ns)", "count", "mean", "p50", "p95", "p99", "max"
            ));
            out.push_str(&format!(
                "{:-<44} {:->8} {:->10} {:->10} {:->10} {:->10} {:->10}\n",
                "", "", "", "", "", "", ""
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<44} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    name, h.count, h.mean, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let reg = Registry::new();
        let other = reg.clone();
        reg.inc("a.b");
        other.add("a.b", 4);
        assert_eq!(reg.snapshot().counter("a.b"), 5);
        assert!(reg.same_as(&other));
    }

    #[test]
    fn spans_record_into_histograms_and_sinks() {
        let reg = Registry::new();
        let ring = Arc::new(RingSink::new(8));
        reg.add_sink(ring.clone());
        {
            let mut outer = reg.span("outer");
            outer.tag("k", "v");
            let inner = reg.span("inner");
            inner.finish();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("outer").unwrap().count, 1);
        assert_eq!(snap.histogram("inner").unwrap().count, 1);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        // Inner finishes first and is tagged with its parent.
        assert_eq!(events[0].name, "inner");
        assert!(events[0]
            .args
            .iter()
            .any(|(k, v)| k == "parent" && v == "outer"));
        assert!(events[1].args.iter().any(|(k, v)| k == "k" && v == "v"));
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let reg = Registry::new();
        reg.add("x.count", 3);
        reg.record_value("y.lat", 128);
        let snap = reg.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.counter("x.count"), 3);
        assert_eq!(back.histogram("y.lat").unwrap().count, 1);
        let table = snap.render_table();
        assert!(table.contains("x.count"));
        assert!(table.contains("y.lat"));
    }

    #[test]
    fn threads_get_distinct_tids() {
        let reg = Registry::new();
        let ring = Arc::new(RingSink::new(8));
        reg.add_sink(ring.clone());
        reg.instant("main-side", &[]);
        let reg2 = reg.clone();
        std::thread::spawn(move || reg2.instant("thread-side", &[]))
            .join()
            .unwrap();
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
    }

    #[test]
    fn counter_prefix_sum_groups_series() {
        let reg = Registry::new();
        reg.add("mi.server.cmd.Step", 2);
        reg.add("mi.server.cmd.Resume", 3);
        reg.add("vm.ops", 100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_prefix_sum("mi.server.cmd."), 5);
    }

    #[test]
    fn gauges_overwrite_and_live_apart_from_counters() {
        let reg = Registry::new();
        reg.set_gauge("vm.ops", 10);
        reg.set_gauge("vm.ops", 7); // absolute reading: replaces, never adds
        reg.inc("vm.ops"); // same name as a counter is a distinct series
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("vm.ops"), 7);
        assert_eq!(snap.counter("vm.ops"), 1);
        let table = snap.render_table();
        assert!(table.contains("gauge"));
    }

    #[test]
    fn spans_carry_trace_context_and_children_inherit_it() {
        let reg = Registry::new();
        let ring = Arc::new(RingSink::new(8));
        reg.add_sink(ring.clone());
        let outer = reg.span("outer");
        let outer_ctx = outer.context();
        assert_eq!(reg.current_context(), Some(outer_ctx));
        let inner = reg.span("inner");
        let inner_ctx = inner.context();
        assert_eq!(inner_ctx.trace_id, outer_ctx.trace_id);
        assert_ne!(inner_ctx.span_id, outer_ctx.span_id);
        inner.finish();
        outer.finish();
        assert_eq!(reg.current_context(), None);
        let events = ring.events();
        let find = |e: &TraceEvent, k: &str| -> String {
            e.args
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        assert_eq!(
            find(&events[0], "parent_span"),
            outer_ctx.span_id.to_string()
        );
        assert_eq!(find(&events[0], "trace_id"), outer_ctx.trace_id.to_string());
        // A root span starts a trace rooted at itself.
        assert_eq!(outer_ctx.trace_id, outer_ctx.span_id);
    }

    #[test]
    fn remote_context_adopts_root_spans_until_cleared() {
        let reg = Registry::new();
        let remote = TraceContext {
            trace_id: 777,
            span_id: 42,
        };
        set_remote_context(Some(remote));
        let span = reg.span("vm.exec");
        assert_eq!(span.context().trace_id, 777);
        span.finish();
        set_remote_context(None);
        let span = reg.span("vm.exec");
        assert_ne!(span.context().trace_id, 777);
        span.finish();
    }
}
