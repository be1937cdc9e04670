//! Structured solver telemetry: span timers, counters, and per-iteration
//! solve events flowing to a pluggable sink.
//!
//! The default sink is no-op and the hot-path guard is a single relaxed
//! atomic load, so instrumented loops cost nothing unless tracing is on.
//! Set `MESHFREE_TRACE=/path/to/run.jsonl` (or `.csv`) before launching a
//! binary to capture a run, or install a sink programmatically:
//!
//! ```
//! use meshfree_runtime::trace;
//! let (sink, events) = trace::MemorySink::new();
//! trace::set_sink(Box::new(sink));
//! {
//!     let _g = meshfree_runtime::span!("assemble");
//!     trace::solve_event("linsolve", "band_lu", 0, f64::NAN, f64::NAN, f64::NAN);
//! }
//! trace::clear_sink();
//! assert_eq!(events.lock().unwrap().len(), 2);
//! ```
//!
//! Event schema (JSONL, one object per line; absent quantities are null):
//!
//! ```json
//! {"type":"span","name":"lu_factor","micros":1234}
//! {"type":"counter","name":"run_peak_bytes","value":1048576.0}
//! {"type":"solve","layer":"pde","solver":"ns_picard","iter":7,
//!  "residual":2.3e-10,"cost":null,"grad_norm":null}
//! ```
//!
//! `layer` is one of `"linsolve"` (one event per sparse backend solve),
//! `"pde"` (nonlinear refinement / mesh-free solve loops), or `"control"`
//! (optimizer iterations of the DAL/DP/PINN drivers).

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// One iteration of an instrumented solver loop. Quantities a layer does
/// not track are `NaN` and serialise as `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveEvent {
    /// Iteration index within the loop.
    pub iter: usize,
    /// Residual norm (increment norm for Picard refinement; NaN where a
    /// solver has none).
    pub residual: f64,
    /// Objective value (control layer).
    pub cost: f64,
    /// Gradient infinity norm (control layer).
    pub grad_norm: f64,
}

/// A telemetry event. Names are `&'static str` so recording never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A timed region closed after `micros` microseconds.
    Span {
        /// Region name (e.g. `"lu_factor"`).
        name: &'static str,
        /// Elapsed wall time in microseconds.
        micros: u64,
    },
    /// A monotonic or gauge-style counter sample.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// One solver iteration at the named layer.
    Solve {
        /// Emitting layer (`"linalg"`, `"pde"`, `"control"`, …).
        layer: &'static str,
        /// Solver name within the layer (e.g. `"band_lu"`, `"ns_picard"`).
        solver: &'static str,
        /// Per-iteration quantities.
        event: SolveEvent,
    },
}

/// Destination for trace events. Implementations must tolerate events from
/// multiple threads (the registry serialises calls under a lock).
pub trait Sink: Send {
    /// Records one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn registry() -> &'static Mutex<Option<Box<dyn Sink>>> {
    static SINK: Mutex<Option<Box<dyn Sink>>> = Mutex::new(None);
    &SINK
}

/// Installs the [`crate::RuntimeConfig`]-configured sinks on first call
/// (the `MESHFREE_TRACE` environment variable remains the override layer).
/// `enabled()` runs it, so instrumented code needs no explicit
/// initialisation.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Some(path) = crate::config::RuntimeConfig::global().trace.clone() else {
            return;
        };
        let sink: Option<Box<dyn Sink>> = if path.ends_with(".csv") {
            CsvSink::create(&path).ok().map(|s| Box::new(s) as _)
        } else {
            JsonlSink::create(&path).ok().map(|s| Box::new(s) as _)
        };
        if let Some(s) = sink {
            set_sink(s);
        } else {
            eprintln!("meshfree-runtime: cannot open MESHFREE_TRACE={path}, tracing disabled");
        }
    });
}

/// True when a sink is installed. This is the hot-path guard: one relaxed
/// load after the one-time env check.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a sink, replacing (and flushing) any previous one.
pub fn set_sink(sink: Box<dyn Sink>) {
    let mut g = registry().lock().unwrap();
    if let Some(old) = g.as_mut() {
        old.flush();
    }
    *g = Some(sink);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes and flushes the current sink; tracing reverts to no-op.
pub fn clear_sink() {
    let mut g = registry().lock().unwrap();
    if let Some(old) = g.as_mut() {
        old.flush();
    }
    *g = None;
    ENABLED.store(false, Ordering::Relaxed);
}

/// Flushes the current sink, if any.
pub fn flush() {
    if let Some(s) = registry().lock().unwrap().as_mut() {
        s.flush();
    }
}

/// Records an event if tracing is enabled.
pub fn record(event: TraceEvent) {
    if !enabled() {
        return;
    }
    if let Some(s) = registry().lock().unwrap().as_mut() {
        s.record(&event);
    }
}

/// Records a counter sample.
pub fn counter(name: &'static str, value: f64) {
    record(TraceEvent::Counter { name, value });
}

/// Records one solver iteration. Pass `f64::NAN` for quantities the layer
/// does not track.
pub fn solve_event(
    layer: &'static str,
    solver: &'static str,
    iter: usize,
    residual: f64,
    cost: f64,
    grad_norm: f64,
) {
    record(TraceEvent::Solve {
        layer,
        solver,
        event: SolveEvent {
            iter,
            residual,
            cost,
            grad_norm,
        },
    });
}

/// Times a region; records a [`TraceEvent::Span`] when dropped. Inert (no
/// clock read) when tracing is disabled.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record(TraceEvent::Span {
                name: self.name,
                micros: start.elapsed().as_micros() as u64,
            });
        }
    }
}

/// Starts a span timer; prefer the [`span!`](crate::span) macro.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Times the enclosing scope: `let _g = span!("lu_factor");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Collects events in memory for test assertions. `new` returns the sink
/// plus a shared handle to the event buffer.
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// Creates the sink and a handle that observes recorded events.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (MemorySink, Arc<Mutex<Vec<TraceEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: Arc::clone(&events),
            },
            events,
        )
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().unwrap().push(*event);
    }
}

fn write_f64_json(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:e}` keeps full precision and round-trips through parse::<f64>.
        let _ = write!(out, "{v:e}");
    } else {
        out.push_str("null");
    }
}

/// Serialises one event as a single-line JSON object.
pub fn to_jsonl(event: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    match event {
        TraceEvent::Span { name, micros } => {
            let _ = write!(
                s,
                "{{\"type\":\"span\",\"name\":\"{name}\",\"micros\":{micros}}}"
            );
        }
        TraceEvent::Counter { name, value } => {
            let _ = write!(s, "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":");
            write_f64_json(&mut s, *value);
            s.push('}');
        }
        TraceEvent::Solve {
            layer,
            solver,
            event,
        } => {
            let _ = write!(
                s,
                "{{\"type\":\"solve\",\"layer\":\"{layer}\",\"solver\":\"{solver}\",\"iter\":{},\"residual\":",
                event.iter
            );
            write_f64_json(&mut s, event.residual);
            s.push_str(",\"cost\":");
            write_f64_json(&mut s, event.cost);
            s.push_str(",\"grad_norm\":");
            write_f64_json(&mut s, event.grad_norm);
            s.push('}');
        }
    }
    s
}

/// Writes one JSON object per event. Lines are flushed per record so a
/// trace survives process aborts; tracing is opt-in, so the syscall cost
/// only exists when a human asked for the file.
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates (truncates) the trace file.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        let _ = writeln!(self.out, "{}", to_jsonl(event));
        let _ = self.out.flush();
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Writes a fixed-column CSV (`kind,name,layer,solver,iter,micros,value,
/// residual,cost,grad_norm`); empty cells mean not-applicable.
pub struct CsvSink {
    out: BufWriter<File>,
}

impl CsvSink {
    /// Creates (truncates) the trace file and writes the header.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<CsvSink> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(
            out,
            "kind,name,layer,solver,iter,micros,value,residual,cost,grad_norm"
        )?;
        Ok(CsvSink { out })
    }
}

fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        String::new()
    }
}

impl Sink for CsvSink {
    fn record(&mut self, event: &TraceEvent) {
        let line = match event {
            TraceEvent::Span { name, micros } => {
                format!("span,{name},,,,{micros},,,,")
            }
            TraceEvent::Counter { name, value } => {
                format!("counter,{name},,,,,{},,,", csv_f64(*value))
            }
            TraceEvent::Solve {
                layer,
                solver,
                event,
            } => format!(
                "solve,,{layer},{solver},{},,,{},{},{}",
                event.iter,
                csv_f64(event.residual),
                csv_f64(event.cost),
                csv_f64(event.grad_norm)
            ),
        };
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------------
// JSONL reading (for round-trip tests and figure regeneration)
// ---------------------------------------------------------------------------

/// A parsed trace event with owned names, as read back from a JSONL file.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedEvent {
    /// See [`TraceEvent::Span`].
    Span {
        /// Region name.
        name: String,
        /// Elapsed wall time in microseconds.
        micros: u64,
    },
    /// See [`TraceEvent::Counter`].
    Counter {
        /// Counter name.
        name: String,
        /// Sampled value.
        value: f64,
    },
    /// See [`TraceEvent::Solve`]; `null` fields parse back to `NaN`.
    Solve {
        /// Emitting layer.
        layer: String,
        /// Solver name within the layer.
        solver: String,
        /// Per-iteration quantities.
        event: SolveEvent,
    },
}

/// Parses one line written by [`JsonlSink`]. Returns `None` for blank or
/// foreign lines. This is a reader for our own flat writer, not a general
/// JSON parser.
pub fn parse_jsonl_line(line: &str) -> Option<ParsedEvent> {
    let fields = parse_flat_object(line.trim())?;
    let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let get_str = |k: &str| match get(k) {
        Some(JsonVal::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let get_num = |k: &str| match get(k) {
        Some(JsonVal::Num(x)) => *x,
        Some(JsonVal::Null) => f64::NAN,
        _ => f64::NAN,
    };
    match get_str("type")?.as_str() {
        "span" => Some(ParsedEvent::Span {
            name: get_str("name")?,
            micros: get_num("micros") as u64,
        }),
        "counter" => Some(ParsedEvent::Counter {
            name: get_str("name")?,
            value: get_num("value"),
        }),
        "solve" => Some(ParsedEvent::Solve {
            layer: get_str("layer")?,
            solver: get_str("solver")?,
            event: SolveEvent {
                iter: get_num("iter") as usize,
                residual: get_num("residual"),
                cost: get_num("cost"),
                grad_norm: get_num("grad_norm"),
            },
        }),
        _ => None,
    }
}

/// Reads every event from a JSONL trace file.
pub fn read_jsonl<P: AsRef<Path>>(path: P) -> std::io::Result<Vec<ParsedEvent>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text.lines().filter_map(parse_jsonl_line).collect())
}

enum JsonVal {
    Str(String),
    Num(f64),
    Null,
}

/// Parses `{"k":v,...}` with string / number / null values.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let inner = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            break;
        }
        let (key, after) = parse_string(rest)?;
        rest = after.strip_prefix(':')?;
        let (val, after) = parse_value(rest)?;
        rest = after;
        out.push((key, val));
    }
    Some(out)
}

fn parse_string(s: &str) -> Option<(String, &str)> {
    let s = s.strip_prefix('"')?;
    let end = s.find('"')?;
    Some((s[..end].to_string(), &s[end + 1..]))
}

fn parse_value(s: &str) -> Option<(JsonVal, &str)> {
    if let Some(rest) = s.strip_prefix("null") {
        return Some((JsonVal::Null, rest));
    }
    if s.starts_with('"') {
        let (v, rest) = parse_string(s)?;
        return Some((JsonVal::Str(v), rest));
    }
    let end = s.find([',', '}']).unwrap_or(s.len());
    let num = s[..end].parse::<f64>().ok()?;
    Some((JsonVal::Num(num), &s[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; serialise the tests that touch it.
    fn lock_registry_for_test() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Span {
                name: "lu_factor",
                micros: 1234,
            },
            TraceEvent::Counter {
                name: "run_peak_bytes",
                value: 1048576.0,
            },
            TraceEvent::Solve {
                layer: "linear",
                solver: "gmres",
                event: SolveEvent {
                    iter: 7,
                    residual: 2.5e-10,
                    cost: f64::NAN,
                    grad_norm: f64::NAN,
                },
            },
            TraceEvent::Solve {
                layer: "control",
                solver: "dp",
                event: SolveEvent {
                    iter: 3,
                    residual: f64::NAN,
                    cost: 0.125,
                    grad_norm: 3.5e-2,
                },
            },
        ]
    }

    fn same_event(a: &TraceEvent, b: &ParsedEvent) -> bool {
        fn eq_nan(x: f64, y: f64) -> bool {
            (x.is_nan() && y.is_nan()) || x == y
        }
        match (a, b) {
            (TraceEvent::Span { name, micros }, ParsedEvent::Span { name: n, micros: m }) => {
                name == n && micros == m
            }
            (TraceEvent::Counter { name, value }, ParsedEvent::Counter { name: n, value: v }) => {
                name == n && eq_nan(*value, *v)
            }
            (
                TraceEvent::Solve {
                    layer,
                    solver,
                    event,
                },
                ParsedEvent::Solve {
                    layer: l,
                    solver: s,
                    event: e,
                },
            ) => {
                layer == l
                    && solver == s
                    && event.iter == e.iter
                    && eq_nan(event.residual, e.residual)
                    && eq_nan(event.cost, e.cost)
                    && eq_nan(event.grad_norm, e.grad_norm)
            }
            _ => false,
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let _g = lock_registry_for_test();
        let path = std::env::temp_dir().join(format!(
            "meshfree_trace_rt_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        set_sink(Box::new(JsonlSink::create(&path).unwrap()));
        for ev in sample_events() {
            record(ev);
        }
        clear_sink();
        let parsed = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let want = sample_events();
        assert_eq!(parsed.len(), want.len());
        for (a, b) in want.iter().zip(&parsed) {
            assert!(same_event(a, b), "{a:?} != {b:?}");
        }
    }

    #[test]
    fn memory_sink_and_span_guard() {
        let _g = lock_registry_for_test();
        let (sink, events) = MemorySink::new();
        set_sink(Box::new(sink));
        {
            let _s = crate::span!("scoped_work");
            counter("items", 3.0);
        }
        solve_event("pde", "ns_picard", 2, 1e-3, f64::NAN, f64::NAN);
        clear_sink();
        let evs = events.lock().unwrap();
        assert_eq!(evs.len(), 3);
        // Counter recorded before the span closes.
        assert!(matches!(evs[0], TraceEvent::Counter { name: "items", .. }));
        assert!(matches!(
            evs[1],
            TraceEvent::Span {
                name: "scoped_work",
                ..
            }
        ));
        assert!(matches!(
            evs[2],
            TraceEvent::Solve {
                layer: "pde",
                solver: "ns_picard",
                ..
            }
        ));
    }

    #[test]
    fn disabled_tracing_records_nothing_and_span_reads_no_clock() {
        let _g = lock_registry_for_test();
        clear_sink();
        let s = span("idle");
        assert!(s.start.is_none());
        drop(s);
        solve_event("linear", "cg", 0, 1.0, f64::NAN, f64::NAN);
        // Nothing to assert beyond "did not panic": the registry is empty.
        assert!(!enabled());
    }

    #[test]
    fn csv_sink_writes_header_and_rows() {
        let _g = lock_registry_for_test();
        let path = std::env::temp_dir().join(format!(
            "meshfree_trace_rt_{}_{:?}.csv",
            std::process::id(),
            std::thread::current().id()
        ));
        set_sink(Box::new(CsvSink::create(&path).unwrap()));
        for ev in sample_events() {
            record(ev);
        }
        clear_sink();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + sample_events().len());
        assert!(lines[0].starts_with("kind,name,layer"));
        assert!(lines[1].starts_with("span,lu_factor"));
        assert!(lines[3].contains("gmres"));
    }

    #[test]
    fn nan_serialises_as_null() {
        let line = to_jsonl(&TraceEvent::Solve {
            layer: "control",
            solver: "dal",
            event: SolveEvent {
                iter: 0,
                residual: f64::NAN,
                cost: 1.0,
                grad_norm: f64::INFINITY,
            },
        });
        assert!(line.contains("\"residual\":null"));
        assert!(line.contains("\"grad_norm\":null"));
        assert!(line.contains("\"cost\":1e0"));
    }
}
