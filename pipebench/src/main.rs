//! `pipebench --workload <study|crawl|search> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets up, runs the workload's operation in a closed loop for `--seconds`,
//! checks every output, and prints one JSON line last on stdout: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). Human-readable detail goes to stderr.

use pipebench::trace::{proc_status_kb, Span, Tracer};
use pipebench::{refs, Bench, CrawlFacts, OpOutput, Workload, WORLDS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: pipebench --workload <study|crawl|search> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Study,
        seed: 1234,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("pipebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Compares outputs with the recorded references, or with the run's first
/// value for the same world where the seed has none.
struct Checker {
    workload: &'static str,
    seed: u64,
    first: BTreeMap<(usize, &'static str), u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Count one operation on world `j`, failed when any check of its
    /// output fails.
    fn record(&mut self, j: usize, out: &OpOutput) {
        let errors = self.check(j, out);
        for e in &errors {
            eprintln!("pipebench: check failed: {e}");
        }
        self.attempted += 1;
        self.failed += u64::from(!errors.is_empty());
    }

    /// Run one operation on world `j` and count it; `None` when it
    /// returned an error.
    fn op(&mut self, bench: &mut Bench, tr: &mut Tracer, j: usize) -> Option<(usize, OpOutput)> {
        match bench.op(tr, j) {
            Ok(out) => {
                self.record(j, &out);
                Some((j, out))
            }
            Err(e) => {
                eprintln!("pipebench: operation failed: {e}");
                self.attempted += 1;
                self.failed += 1;
                None
            }
        }
    }

    fn repeat(&mut self, j: usize, name: &'static str, v: u64, errors: &mut Vec<String>) {
        let first = *self.first.entry((j, name)).or_insert(v);
        if first != v {
            errors.push(format!(
                "world {j} {name} {v:#018x} differs from the run's first {first:#018x}"
            ));
        }
    }

    /// Every failed check of one output of world `j`.
    fn check(&mut self, j: usize, out: &OpOutput) -> Vec<String> {
        let mut errors = out.errors.clone();
        for &(name, v) in &out.checked {
            match refs::lookup(self.workload, self.seed, j, name) {
                Some(r) if r != v => {
                    errors.push(format!("world {j} {name} {v:#018x} != reference {r:#018x}"))
                }
                Some(_) => {}
                None => self.repeat(j, name, v, &mut errors),
            }
        }
        for &(name, v) in &out.repeat {
            self.repeat(j, name, v, &mut errors);
        }
        errors
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5)
}

/// The mean of the middle half of `v`, by rank: like the median it ignores
/// the outliers, and unlike it, it does not jump between the two clusters
/// that timings on a shared box fall into.
fn central(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// The mean over worlds of each world's [`central`] value: no single
/// world's size decides the figure.
fn over_worlds(samples: impl Iterator<Item = (usize, f64)>) -> f64 {
    let mut by_world: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (j, v) in samples {
        by_world.entry(j).or_default().push(v);
    }
    let n = by_world.len().max(1) as f64;
    by_world.into_values().map(central).sum::<f64>() / n
}

/// Work per second: each world's work per sample over its [`central`]
/// sample seconds, then the mean over worlds. Every sample of a world does
/// the same work: the same queries, or a crawl whose granted count the
/// output checks pin.
fn rate_over_worlds(samples: impl Iterator<Item = (usize, f64, f64)>) -> f64 {
    let mut by_world: BTreeMap<usize, (f64, Vec<f64>)> = BTreeMap::new();
    for (j, work, secs) in samples {
        let w = by_world.entry(j).or_default();
        w.0 += work;
        w.1.push(secs);
    }
    let n = by_world.len().max(1) as f64;
    by_world
        .into_values()
        .map(|(work, secs)| work / secs.len() as f64 / central(secs))
        .sum::<f64>()
        / n
}

/// Every crawl of `outs`, with its world.
fn crawls_of(outs: &[(usize, OpOutput)]) -> Vec<(usize, &CrawlFacts)> {
    outs.iter()
        .flat_map(|(j, o)| o.crawls.iter().map(move |c| (*j, c)))
        .collect()
}

/// Linear-interpolated quantile; 0 for no samples.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

const MB: f64 = 1024.0 * 1024.0;

fn run(args: &Args) -> Result<String, String> {
    let name = args.workload.name();
    let mut bench = Bench::new(args.workload, args.seed);
    let mut tr = Tracer::default();
    tr.set_enabled(args.trace);
    let mut checker = Checker {
        workload: name,
        seed: args.seed,
        first: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    if !refs::has_seed(name, args.seed) {
        eprintln!(
            "pipebench: no reference for seed {}; checking repeats and recounts",
            args.seed
        );
    }
    let mut op_id = 0u64;
    let mut setup_s = Vec::new();
    let mut setup_outs = Vec::new();
    for j in 0..WORLDS {
        let mut world_s = 0.0;
        for step in 0..bench.setup_steps() {
            op_id += 1;
            tr.set_op(op_id, true);
            let t0 = bench.clock.now();
            let out = bench
                .setup(&mut tr, j, step)
                .map_err(|e| format!("set-up: {e}"))?;
            world_s += bench.clock.now() - t0;
            checker.record(j, &out);
            setup_outs.push((j, out));
        }
        setup_s.push(world_s);
    }

    // Closed loop, one caller, over the worlds in turn, in whole rounds so
    // every world weighs the same. A traced run alternates an untraced and
    // a traced operation, so both see the same heap and box state.
    let budget = Duration::from_secs(args.seconds);
    // flock-lint: allow(determinism) the benchmark times the pipeline by the wall clock; no reading reaches a checked output
    let start = Instant::now();
    let mut outs: Vec<(usize, OpOutput)> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut n = 0;
    while start.elapsed() < budget || n % WORLDS != 0 {
        let j = n % WORLDS;
        n += 1;
        if args.trace {
            tr.set_enabled(false);
            if let Some((j, out)) = checker.op(&mut bench, &mut tr, j) {
                untraced_walls.push((j, out.wall_s));
            }
            tr.set_enabled(true);
        }
        op_id += 1;
        tr.set_op(op_id, false);
        outs.extend(checker.op(&mut bench, &mut tr, j));
    }
    let peak_rss_mb = proc_status_kb("VmHWM") as f64 / 1024.0;
    for ((j, k), v) in &checker.first {
        eprintln!(
            "pipebench: {name} seed {} world {j} {k} = {v:#018x}",
            args.seed
        );
    }

    // Crawl-side figures come from the measured operations, or on `search`
    // from the set-up's discover crawls.
    let mut crawls = crawls_of(&outs);
    if crawls.is_empty() {
        crawls = crawls_of(&setup_outs);
    }
    let walls: Vec<f64> = outs.iter().map(|(_, o)| o.wall_s).collect();
    let mut sorted = walls.clone();
    eprintln!(
        "pipebench: {name} seed {}: {} operations, wall_s (reference seconds) min {:.4} median {:.4} mean {:.4} max {:.4}",
        args.seed,
        walls.len(),
        quantile(&mut sorted, 0.0),
        quantile(&mut sorted, 0.5),
        walls.iter().sum::<f64>() / walls.len().max(1) as f64,
        quantile(&mut sorted, 1.0),
    );
    eprintln!(
        "pipebench: {name} seed {}: {:.3} reference seconds per wall second",
        args.seed,
        bench.clock.ratio(),
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        per_layer(
            &mut metrics,
            &tr,
            &setup_outs,
            &outs,
            &crawls,
            &untraced_walls,
        );
        print_shares(args.workload, tr.spans());
        let dir = std::path::Path::new("pipebench/out");
        let path = dir.join(format!("trace-{name}-{}.jsonl", args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "pipebench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
    } else {
        let of_crawls =
            |f: &dyn Fn(&CrawlFacts) -> f64| over_worlds(crawls.iter().map(|&(j, c)| (j, f(c))));
        metrics.push(("setup_s".into(), median(setup_s), "s"));
        metrics.push((
            "wall_s".into(),
            over_worlds(outs.iter().map(|(j, o)| (*j, o.wall_s))),
            "s",
        ));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb, "MB"));
        metrics.push((
            "goodput_rps".into(),
            rate_over_worlds(crawls.iter().map(|&(j, c)| (j, c.granted as f64, c.wall_s))),
            "1/s",
        ));
        metrics.push((
            "attempts_per_grant".into(),
            of_crawls(&|c| c.attempts as f64 / c.granted as f64),
            "ratio",
        ));
        metrics.push((
            "virtual_crawl_s".into(),
            of_crawls(&|c| c.virtual_s as f64),
            "s",
        ));
        metrics.push((
            "search_qps".into(),
            rate_over_worlds(outs.iter().flat_map(|(j, o)| {
                let (n, pass_s) = o
                    .queries
                    .as_ref()
                    .map_or((0, &[][..]), |(n, p)| (*n, &p[..]));
                pass_s.iter().map(move |s| (*j, n as f64, *s))
            })),
            "1/s",
        ));
    }

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.failed == 0,
        checker.attempted,
        checker.failed
    );
    for (i, (k, v, unit)) in metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {k} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Median of `f` over the spans named `name`; 0 where the layer did not run.
fn span_median(spans: &[Span], name: &str, f: impl Fn(&Span) -> f64) -> f64 {
    median(spans.iter().filter(|s| s.name == name).map(f).collect())
}

fn per_layer(
    m: &mut Vec<(String, f64, &'static str)>,
    tr: &Tracer,
    setup_outs: &[(usize, OpOutput)],
    outs: &[(usize, OpOutput)],
    crawls: &[(usize, &CrawlFacts)],
    untraced_walls: &[(usize, f64)],
) {
    let spans = tr.spans();
    let secs = |name: &str| span_median(spans, name, Span::secs);
    // Later calls reuse heap pages earlier ones freed, so the growth a
    // layer needs shows on its first, cold call: report the largest.
    let rss = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.rss_delta_kb.unwrap_or(0) as f64 / 1024.0)
            .fold(0.0, f64::max)
    };
    let alloc = |name: &str| span_median(spans, name, |s| s.alloc_bytes as f64 / MB);
    // Counts are the mean over worlds, like the end-to-end metrics.
    let sizes = || {
        setup_outs
            .iter()
            .chain(outs)
            .filter_map(|(j, o)| Some((*j, o.world_size?)))
    };
    let count =
        |f: &dyn Fn(&CrawlFacts) -> u64| over_worlds(crawls.iter().map(|&(j, c)| (j, f(c) as f64)));
    let mut push = |k: &str, v: f64, unit: &'static str| m.push((k.to_string(), v, unit));

    push("fedisim.generate_s", secs("fedisim.generate"), "s");
    push("fedisim.rss_mb", rss("fedisim.generate"), "MB");
    push("fedisim.alloc_mb", alloc("fedisim.generate"), "MB");
    push(
        "fedisim.tweets",
        over_worlds(sizes().map(|(j, w)| (j, w.0 as f64))),
        "count",
    );
    push(
        "fedisim.statuses",
        over_worlds(sizes().map(|(j, w)| (j, w.1 as f64))),
        "count",
    );

    push("apis.index_build_s", secs("apis.index_build"), "s");
    push("apis.index_rss_mb", rss("apis.index_build"), "MB");
    push("apis.index_alloc_mb", alloc("apis.index_build"), "MB");
    let mut query_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "apis.query")
        .map(|s| s.secs() * 1e6)
        .collect();
    push("apis.query_p50_us", quantile(&mut query_us, 0.5), "us");
    push("apis.query_p95_us", quantile(&mut query_us, 0.95), "us");
    push("apis.granted", count(&|c| c.granted), "count");
    push("apis.rate_limited", count(&|c| c.rate_limited), "count");
    push("apis.faults", count(&|c| c.faults), "count");

    push("crawler.discover_s", secs("crawler.discover"), "s");
    push("crawler.expand_s", secs("crawler.expand"), "s");
    push("crawler.attempts", count(&|c| c.attempts), "count");
    push("crawler.rss_mb", rss("crawler.crawl"), "MB");
    for (i, phase) in flock_crawler::pipeline::PHASES.iter().enumerate() {
        let v = count(&|c| c.phase_virtual_s[i]);
        m.push((format!("crawler.{phase}.virtual_s"), v, "s"));
    }
    let mut push = |k: &str, v: f64, unit: &'static str| m.push((k.to_string(), v, unit));

    push("analysis.headline_s", secs("analysis.headline"), "s");
    push("repro.fig14_s", secs("repro.fig14"), "s");
    push("repro.fig15_s", secs("repro.fig15"), "s");
    push("repro.fig16_s", secs("repro.fig16"), "s");
    push("repro.headline_fig_s", secs("repro.headline_fig"), "s");
    let mut other: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "repro.fig_other") {
        *other.entry(s.op).or_default() += s.secs();
    }
    push(
        "repro.figs_other_s",
        median(other.into_values().collect()),
        "s",
    );
    push("repro.rss_mb", rss("repro.render"), "MB");

    let ops: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "op" && !s.setup)
        .collect();
    push(
        "bench.self_s",
        median(ops.iter().map(|s| s.self_ns as f64 / 1e9).collect()),
        "s",
    );
    let traced = over_worlds(outs.iter().map(|(j, o)| (*j, o.wall_s)));
    let untraced = over_worlds(untraced_walls.iter().copied());
    push(
        "bench.trace_overhead_pct",
        100.0 * (traced / untraced - 1.0),
        "%",
    );
}

/// Print each layer's share of measured-operation self time, and whether
/// the workload's stated role holds.
fn print_shares(workload: Workload, spans: &[Span]) {
    let measured = spans.iter().filter(|s| !s.setup);
    let total: u64 = measured
        .clone()
        .filter(|s| s.name == "op")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for s in measured {
        *by_layer.entry(s.layer).or_default() += s.self_ns;
    }
    let share = |layers: &[&str]| {
        100.0
            * layers
                .iter()
                .map(|l| by_layer.get(l).copied().unwrap_or(0))
                .sum::<u64>() as f64
            / total.max(1) as f64
    };
    for layer in by_layer.keys() {
        eprintln!(
            "pipebench: share of operation self time {layer:<11} {:6.2}%",
            share(&[layer])
        );
    }
    let (layers, floor): (&[&str], f64) = match workload {
        Workload::Study => (&["analysis", "repro"], 40.0),
        Workload::Crawl => (&["apis.build", "crawler"], 90.0),
        Workload::Search => (&["apis.query"], 90.0),
    };
    let got = share(layers);
    eprintln!(
        "pipebench: role {}: {} = {got:.2}% (stated ≥ {floor}%)",
        if got >= floor { "holds" } else { "NOT MET" },
        layers.join(" + "),
    );
}
