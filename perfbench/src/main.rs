//! The benchmark's traced per-layer pass (`perfbench/run.py --trace 1`).
//!
//! Calls each layer's public functions on the workload's generated inputs
//! with a span around every call, and prints per-layer totals.  The
//! end-to-end runs never load this program: they drive the `figures`
//! binary, with tracing off.
//!
//! Usage: `perfbench-trace <inputs> <spans-out>`
//!
//! `<inputs>` holds one directive per line:
//!
//! ```text
//! store <path>              the prepared store to warm-load (read only)
//! save <path>               where the traced save writes its store
//! sweep <args...>           a `figures sweep` argument list
//! request <class> <line>    a serve request line; class is hit, miss or corun
//! ```
//!
//! Stdout gets one `metric <name> <value> <unit>` line per metric and one
//! `check <ok|fail> <what>` line per correctness check.  The spans are
//! kept in memory and written to `<spans-out>` as JSON lines at the end.

use std::cell::RefCell;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use clover_bench::{
    run_artifact, run_interference_artifact, EXPERIMENTS, INTERFERENCE_EXPERIMENTS,
};
use clover_cachesim::SimMemo;
use clover_core::SweepMemo;
use clover_golden::{check_artifact, golden, Artifact};
use clover_scenario::{interference_factor, render_block, run_plan_memo, Aggressor, SweepArgs};
use clover_service::{LoadOutcome, PersistentStore, SweepService};

/// Alternated pairs of replays of the serve request lines, one with and
/// one without spans.
const REPLAYS: usize = 9;

/// One timed call: `parent` is the span that was open when it started.
struct Span {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder.  A disabled tracer runs the closure bare, so
/// the same pass can be timed with and without tracing.
struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.spans.borrow().len();
        let parent = self.open.borrow().last().copied();
        let start_ns = self.origin.elapsed().as_nanos();
        self.spans.borrow_mut().push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.origin.elapsed().as_nanos();
        out
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `clover-bench` layer an experiment's kernels belong to.
fn bench_layer(name: &str) -> &'static str {
    match name {
        "fig5" | "fig9" | "fig10" => "bench.store_ratio",
        "fig6" | "fig8" | "fig11" => "bench.copy",
        _ => "bench.analytic",
    }
}

fn handle_span(class: &str) -> Option<&'static str> {
    match class {
        "hit" => Some("service.handle_hit"),
        "miss" => Some("service.handle_miss"),
        "corun" => Some("service.handle_corun"),
        _ => None,
    }
}

#[derive(Default)]
struct Inputs {
    store: PathBuf,
    save: PathBuf,
    sweeps: Vec<Vec<String>>,
    requests: Vec<(&'static str, String)>,
}

fn read_inputs(path: &str) -> Result<Inputs, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut inputs = Inputs::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
        match word {
            "store" => inputs.store = PathBuf::from(rest),
            "save" => inputs.save = PathBuf::from(rest),
            "sweep" => inputs
                .sweeps
                .push(rest.split_whitespace().map(str::to_string).collect()),
            "request" => {
                let (class, request) = rest.split_once(' ').unwrap_or((rest, ""));
                let span = handle_span(class).ok_or_else(|| format!("unknown class '{class}'"))?;
                inputs.requests.push((span, request.to_string()));
            }
            _ => return Err(format!("unknown directive '{word}'")),
        }
    }
    if inputs.store.as_os_str().is_empty() || inputs.save.as_os_str().is_empty() {
        return Err("inputs need a store and a save line".to_string());
    }
    Ok(inputs)
}

/// Replay the serve request lines in-process on a fresh service warmed
/// from `store`, as one worker of the daemon would; returns the time of the
/// requests, the store load excluded.
fn replay(tracer: &Tracer, store: &Path, requests: &[(&'static str, String)]) -> f64 {
    let (service, _) = SweepService::with_store(PersistentStore::new(store));
    let start = Instant::now();
    for (span, line) in requests {
        tracer.span(span, || service.handle_request(line));
    }
    start.elapsed().as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [inputs, spans_out] = &args[..] else {
        eprintln!("usage: perfbench-trace <inputs> <spans-out>");
        return ExitCode::from(2);
    };
    let inputs = match read_inputs(inputs) {
        Ok(inputs) => inputs,
        Err(message) => {
            eprintln!("perfbench-trace: {message}");
            return ExitCode::from(2);
        }
    };
    let check = |ok: bool, what: &str| println!("check {} {what}", if ok { "ok" } else { "fail" });
    let tracer = Tracer::new(true);

    // clover-bench and clover-golden: the twelve paper artifacts and the
    // three interference artifacts.
    let mut artifacts: Vec<Artifact> = Vec::new();
    for name in EXPERIMENTS {
        let artifact = tracer
            .span(bench_layer(name), || run_artifact(name))
            .expect("EXPERIMENTS names are known");
        let anchors = golden(name).expect("every experiment has paper data");
        let report = tracer.span("golden.check", || check_artifact(&artifact, anchors));
        check(report.passed(), &format!("{name} within tolerance"));
        artifacts.push(artifact);
    }
    for name in INTERFERENCE_EXPERIMENTS {
        artifacts.push(
            tracer
                .span("bench.interfere", || run_interference_artifact(name))
                .expect("INTERFERENCE_EXPERIMENTS names are known"),
        );
    }

    // clover-scenario on every distinct sweep of the workload inputs.
    let mut lines: Vec<Vec<String>> = inputs.sweeps.clone();
    for (_, request) in &inputs.requests {
        let words: Vec<String> = request
            .split_whitespace()
            .skip(1)
            .map(str::to_string)
            .collect();
        if !lines.contains(&words) {
            lines.push(words);
        }
    }
    let mut parsed = Vec::new();
    for words in &lines {
        match tracer.span("scenario.parse", || SweepArgs::parse(words)) {
            Ok(p) => parsed.push(p),
            Err(e) => check(false, &format!("parse '{}': {e}", words.join(" "))),
        }
    }
    let mut corun_keys = Vec::new();
    for p in &parsed {
        for s in tracer.span("scenario.expand", || p.plan.expand()) {
            let key = (s.machine, s.aggressor, s.interleave);
            if s.aggressor != Aggressor::None && !corun_keys.contains(&key) {
                corun_keys.push(key);
            }
        }
    }

    // clover-service's store feeds the memo the plans run through.
    let sim = SimMemo::new();
    let memo = SweepMemo::new();
    let outcome = tracer.span("service.store_load", || {
        PersistentStore::new(&inputs.store).warm_load(&sim, &memo)
    });
    check(
        matches!(outcome, LoadOutcome::Warm(_)),
        "prepared store loads warm",
    );
    for p in &parsed {
        artifacts.extend(tracer.span("scenario.run_plan", || {
            run_plan_memo(&p.plan, p.jobs, &memo)
        }));
    }
    for (machine, aggressor, interleave) in &corun_keys {
        let factor = tracer.span("scenario.corun", || {
            interference_factor(&machine.machine(), *aggressor, *interleave, &SimMemo::new())
        });
        check(factor >= 1.0, "co-run inflation factor is at least 1");
    }
    for artifact in &artifacts {
        tracer.span("golden.render", || {
            std::hint::black_box((render_block(artifact), artifact.to_json()))
        });
    }
    let saved = tracer.span("service.store_save", || {
        PersistentStore::new(&inputs.save).save_capped(&sim, &memo, usize::MAX)
    });
    check(saved.is_ok(), "store saves");
    let store_bytes = fs::metadata(&inputs.save).map_or(0, |m| m.len());

    // Alternate untraced and traced replays, each on a fresh service, so
    // that neither side alone pays for the first replay's cold caches; the
    // overhead is the median of the per-pair differences.
    let untraced = Tracer::new(false);
    let (mut untraced_ms, mut traced_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        let bare = replay(&untraced, &inputs.store, &inputs.requests);
        let spanned = tracer.span("trace.replay", || {
            replay(&tracer, &inputs.store, &inputs.requests)
        });
        untraced_ms.push(bare);
        traced_ms.push(spanned);
        overhead_ms.push(spanned - bare);
    }

    let metric = |name: &str, value: f64, unit: &str| println!("metric {name} {value} {unit}");
    for layer in [
        "bench.store_ratio",
        "bench.copy",
        "bench.analytic",
        "bench.interfere",
        "golden.check",
        "golden.render",
        "scenario.parse",
        "scenario.expand",
        "scenario.run_plan",
        "scenario.corun",
        "service.store_load",
        "service.store_save",
    ] {
        metric(&format!("{layer}_ms"), tracer.total_ms(layer), "ms");
    }
    metric("service.store_bytes", store_bytes as f64, "bytes");
    for class in ["hit", "miss", "corun"] {
        let span = handle_span(class).expect("known class");
        metric(
            &format!("{span}_ms"),
            median(tracer.durations_ms(span)),
            "ms",
        );
    }
    metric("trace.traced_pass_ms", median(traced_ms), "ms");
    metric("trace.untraced_pass_ms", median(untraced_ms), "ms");
    metric("trace.overhead_ms", median(overhead_ms), "ms");

    if let Err(e) = tracer.write(Path::new(spans_out)) {
        eprintln!("perfbench-trace: cannot write spans to {spans_out}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
