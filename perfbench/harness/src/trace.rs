//! In-memory spans for the traced run.
//!
//! Every span has a name, a start and end (host nanoseconds since the
//! tracer was created), a parent, the thread lane it ran on, and the run
//! it belongs to. Spans are kept in memory and written once, at the end,
//! as Chrome trace-event JSON (which Perfetto opens). `App::serve` calls
//! are far too many to keep one span each, so their host time is folded
//! into the enclosing span as `serve_ns` and counted as child time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub lane: u32,
    pub run: u32,
    /// Numeric annotations; `serve_ns` is folded-in child time.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn arg(&self, key: &str) -> f64 {
        self.args
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static LANE: RefCell<u32> = const { RefCell::new(0) };
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(1);

fn lane() -> u32 {
    LANE.with(|l| {
        let mut l = l.borrow_mut();
        if *l == 0 {
            *l = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        }
        *l
    })
}

/// The process-wide tracer. Wrapped apps must be `'static` (the
/// profiler's `build` closure returns `Box<dyn App>`), so they reach the
/// tracer through this global rather than a borrow.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    run: AtomicU32,
    run_names: Mutex<Vec<String>>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            run: AtomicU32::new(0),
            run_names: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new run id (one per workload/job traced in this process);
    /// later spans belong to it.
    pub fn begin_run(&self, name: &str) -> u32 {
        let mut names = self.run_names.lock().expect("tracer run list poisoned");
        names.push(name.to_string());
        let id = u32::try_from(names.len()).unwrap_or(u32::MAX);
        self.run.store(id, Ordering::Relaxed);
        id
    }

    pub fn alloc_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The innermost open span on this thread (0 if none).
    pub fn current(&self) -> u32 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Records a finished span with an explicit parent.
    pub fn record(&self, mut span: Span) {
        span.run = self.run.load(Ordering::Relaxed);
        span.lane = lane();
        self.spans
            .lock()
            .expect("tracer span list poisoned")
            .push(span);
    }

    /// Runs `f` inside a span named `name`, nested under the current span
    /// of this thread. `f` receives the span's id and returns annotations
    /// alongside its result.
    pub fn span_args<T>(
        &self,
        name: &'static str,
        f: impl FnOnce(u32) -> (T, Vec<(&'static str, f64)>),
    ) -> T {
        let id = self.alloc_id();
        let parent = self.current();
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.now();
        let (out, args) = f(id);
        let end_ns = self.now();
        STACK.with(|s| s.borrow_mut().pop());
        self.record(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            lane: 0,
            run: 0,
            args,
        });
        out
    }

    /// [`span_args`](Self::span_args) without annotations.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_args(name, |_| (f(), Vec::new()))
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("tracer span list poisoned")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Writes the spans as Chrome trace-event JSON: one complete (`X`)
    /// event per span, `pid` = run, `tid` = thread lane.
    pub fn chrome_json(&self) -> String {
        let names = self
            .run_names
            .lock()
            .expect("tracer run list poisoned")
            .clone();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for (i, name) in names.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                name
            ));
        }
        for s in self.spans() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
                s.name,
                s.run,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent
            ));
            for (k, v) in &s.args {
                out.push_str(&format!(",\"{k}\":{v}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span name inside the subtree of `root`: each span's
/// duration minus its children's durations and its folded-in serve time
/// (reported under `apps.serve`). The rows sum to the root's duration
/// when children run one after another, as they do on a blocking path.
pub fn self_times(spans: &[Span], root: u32) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut table = BTreeMap::new();
    let mut todo: Vec<&Span> = spans.iter().filter(|s| s.id == root).collect();
    while let Some(s) = todo.pop() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let child_ns: u64 = kids.iter().map(|k| k.dur_ns()).sum();
        let serve_ns = s.arg("serve_ns") as u64;
        *table.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(child_ns + serve_ns);
        if serve_ns > 0 {
            *table.entry("apps.serve").or_insert(0) += serve_ns;
        }
        todo.extend(kids.iter().copied());
    }
    table
}

/// Total duration (ns) and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
}

/// Sum of the argument `key` over the spans named `name`.
pub fn arg_sum(spans: &[Span], name: &str, key: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.arg(key))
        .sum()
}
