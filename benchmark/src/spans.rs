//! In-memory spans recorded by the harness around each layer's calls.
//!
//! A span is a named interval with the span that caused it. The traced
//! run keeps every span in memory and reads them when it ends; a layer's
//! self time is its span minus the part of it that child spans cover.

use sad_core::{Event, Observer, Phase};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a thread panicked while recording a span")
    }

    /// Start a span; it stays open (zero length) until [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now();
        let mut spans = self.lock();
        spans.push(Span { name: name.to_string(), start: now, end: now, parent });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let now = self.now();
        self.lock()[id].end = now;
    }

    /// Record `f` as one span.
    pub fn scoped<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Length of span `id` so far recorded.
    pub fn seconds(&self, id: usize) -> f64 {
        self.lock()[id].seconds()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Seconds of span `id` that no child span covers. Children may overlap
/// each other (the distributed backend's phases do: a phase runs from the
/// first rank in to the last rank out), so their union is subtracted, and
/// only the part inside the parent counts.
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let parent = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = parent.start;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    parent.seconds() - covered
}

/// Turns the pipeline's observer events into spans: one span per phase,
/// each a child of the harness's own span around `Aligner::run`.
pub struct PhaseSpans {
    tracer: Arc<Tracer>,
    run: usize,
    open: Mutex<Vec<(Phase, usize)>>,
}

impl PhaseSpans {
    pub fn new(tracer: Arc<Tracer>, run: usize) -> Self {
        PhaseSpans { tracer, run, open: Mutex::new(Vec::new()) }
    }
}

impl Observer for PhaseSpans {
    fn on_event(&self, event: &Event) {
        let mut open = self.open.lock().expect("a thread panicked inside the observer");
        match event {
            Event::PhaseStarted { phase } => {
                open.push((*phase, self.tracer.open(phase.name(), Some(self.run))))
            }
            Event::PhaseFinished { phase, .. } => {
                if let Some(at) = open.iter().position(|(p, _)| p == phase) {
                    self.tracer.close(open.swap_remove(at).1);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start, end, parent }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // b starts inside a; c lies wholly inside b; d sticks out past the
        // parent's end and a grandchild must not count against the root.
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 4.0, 5.0, Some(0)),
            span("d", 9.0, 12.0, Some(0)),
            span("grandchild", 1.0, 2.0, Some(1)),
        ];
        // Covered: [1,6] and [9,10] = 6 s.
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_scoped_spans() {
        let tracer = Tracer::new();
        let outer = tracer.open("outer", None);
        tracer.scoped("inner", Some(outer), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].seconds() >= 0.002);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(self_time(&spans, 0) >= 0.0);
    }

    #[test]
    fn observer_events_become_phase_children_of_the_run_span() {
        let tracer = Arc::new(Tracer::new());
        let run = tracer.open("core.run", None);
        let obs = PhaseSpans::new(Arc::clone(&tracer), run);
        obs.on_event(&Event::RunStarted { backend: "rayon", n_seqs: 2, ranks: 1 });
        obs.on_event(&Event::PhaseStarted { phase: Phase::LocalAlign });
        obs.on_event(&Event::PhaseStarted { phase: Phase::Glue });
        let done = |phase| Event::PhaseFinished { phase, work: bioseq::Work::ZERO, seconds: 0.0 };
        obs.on_event(&done(Phase::LocalAlign));
        obs.on_event(&done(Phase::Glue));
        obs.on_event(&Event::RunFinished { seconds: 0.0, cancelled: false });
        tracer.close(run);
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["core.run", "8-local-align", "12-glue"]);
        assert!(spans[1..].iter().all(|s| s.parent == Some(run) && s.end >= s.start));
    }
}
