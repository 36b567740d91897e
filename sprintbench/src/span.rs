//! In-memory span recorder for the traced run.
//!
//! A span is one call the driver makes into a layer (or one call a shim
//! forwards on a session port): name, start, end, the span open around
//! it (its parent) and the run it belongs to (a traced process
//! runs one input several ways, and each way is a run). Spans
//! stay in memory while the benchmark runs and are written out once,
//! when it ends. A span's *self time* is its duration minus the part of
//! it that its child spans cover.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `thermal.advance`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (equal to the start while the span is open).
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// The run the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

/// A recorder shared between the driver loop and the port shims.
pub type SharedRecorder = Rc<RefCell<SpanRecorder>>;

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// A recorder behind `Rc<RefCell<..>>`, for sharing with shims.
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Self::new()))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans begun from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let now = self.now_ns();
        self.push(name, now, now)
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Summed self time of the spans named `name`, seconds: each span's
    /// duration minus the union of its children's intervals inside it.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&mut children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, kids)| self_time_ns(s, kids))
            .sum();
        ns as f64 * 1e-9
    }

    /// Writes every span as CSV (`id,parent,run,name,start_ns,end_ns`;
    /// a root span's parent is empty).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,run,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// `span`'s duration minus the union of `children` clipped to it.
fn self_time_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(reach);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Runs `f` inside a span named `name` on the shared recorder.
pub fn traced<R>(rec: &SharedRecorder, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = rec.borrow_mut().begin(name);
    let out = f();
    rec.borrow_mut().end(id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            start_ns,
            end_ns,
            parent: None,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(0, 100);
        // Overlapping children cover 10..40 once, not twice; a child
        // sticking out past the parent's end is clipped.
        let mut kids = vec![(30, 40), (10, 35), (90, 130)];
        assert_eq!(self_time_ns(&parent, &mut kids), 100 - 30 - 10);
        assert_eq!(self_time_ns(&parent, &mut []), 100);
        // Nested children (a child inside another) count once.
        let mut nested = vec![(0, 50), (10, 20)];
        assert_eq!(self_time_ns(&parent, &mut nested), 50);
    }

    #[test]
    fn recorder_links_parents_and_runs() {
        let mut rec = SpanRecorder::new();
        rec.set_run(7);
        let outer = rec.begin("core.step");
        let inner = rec.begin("thermal.advance");
        rec.end(inner);
        rec.end(outer);
        let root = rec.begin("core.rest");
        rec.end(root);
        let s = &rec.spans;
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[0].parent, None);
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        assert_eq!(rec.count("core.step"), 1);
        let step = rec.total_s("core.step");
        let advance = rec.total_s("thermal.advance");
        assert!((rec.self_s("core.step") - (step - advance)).abs() < 1e-12);
    }

    #[test]
    fn csv_has_one_line_per_span() {
        let mut rec = SpanRecorder::new();
        let a = rec.begin("a");
        let b = rec.begin("b");
        rec.end(b);
        rec.end(a);
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let path = dir.join("spans.csv");
        rec.write_csv(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        std::fs::remove_dir_all(&dir).expect("clean up");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,,0,a,"));
        assert!(lines[2].starts_with("1,0,0,b,"));
    }
}
