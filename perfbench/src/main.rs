//! `perf` — run the benchmark workloads, or compare two result files.
//!
//! ```text
//! perf --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--out PATH]
//! perf compare BASE.json NEW.json
//! ```
//!
//! Per workload: one warm-up run; then, with `--trace 0` (or no
//! `--trace`), set-up probes and untraced end-to-end runs for `S`
//! seconds; then, with `--trace 1` (or no `--trace`), alternating
//! untraced and traced runs for another `S` seconds. Every run's outcome
//! digest is checked against `reference.json`, or against the first run
//! for seeds it does not list. Each workload prints every metric with
//! its unit to stderr and one JSON summary line to stdout; the full
//! result goes to `PATH` (default
//! `target/perf/perf_[<workload>_]<seed>.json`) and the spans of the
//! first traced run's longest trial to `spans_<workload>_<seed>.jsonl`
//! beside it. Without `--workload`, each workload runs in a child
//! `perf --workload` process, writing `perf_<workload>_<seed>.json`
//! beside `PATH`, so that each one's peak RSS is its own.
//!
//! Exit status: 0 when every digest matched, 1 on a mismatch or an I/O
//! error, 2 on a usage error (before any run starts). `perf compare`
//! exits 1 when a metric regressed or a work counter changed.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ffd2d_perf::host;
use ffd2d_perf::metrics::{layer_metrics, Quartiles, END_TO_END, OVERHEAD_PCT, PER_LAYER};
use ffd2d_perf::report::{compare, merge_results, result_json, WorkloadResult};
use ffd2d_perf::spans::SpanRecorder;
use ffd2d_perf::workload::{Shape, Workload, WORKLOADS};
use ffd2d_telemetry::json::Value;

const USAGE: &str =
    "usage: perf --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--out PATH]
       perf compare BASE.json NEW.json";

/// Measuring window per phase when `--seconds` is absent (the
/// benchmark's `run_seconds`).
const DEFAULT_SECONDS: u64 = 20;
/// Set-up is short and noisy: it is probed at least this many times and
/// for at least [`SETUP_MIN`], and the median is reported.
const SETUP_PROBES: usize = 15;
const SETUP_MIN: Duration = Duration::from_secs(1);
/// Reference outcome digests: workload → seed → FNV-1a hex.
const REFERENCE: &str = include_str!("../reference.json");

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    /// `None` runs both phases.
    trace: Option<bool>,
    out: PathBuf,
}

#[derive(Debug)]
enum Cmd {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [base, new] => Ok(Cmd::Compare(base.into(), new.into())),
            _ => Err("compare takes exactly BASE.json NEW.json".into()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, None, DEFAULT_SECONDS, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(value).ok_or(format!(
                    "unknown workload {value:?}; expected one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed takes a non-negative integer, got {value:?}")
                    })?)
            }
            "--seconds" => {
                seconds = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or(format!("--seconds takes a positive integer, got {value:?}"))?
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Cmd::Run(RunArgs {
        workloads: workload.map_or(WORKLOADS.to_vec(), |w| vec![w]),
        seed,
        seconds,
        trace,
        out: out.unwrap_or_else(|| {
            let name = workload.map_or(String::new(), |w| format!("{}_", w.name));
            PathBuf::from(format!("target/perf/perf_{name}{seed}.json"))
        }),
    }))
}

/// Outcome-digest bookkeeping for one workload.
struct Check {
    name: &'static str,
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Check {
    fn see(&mut self, digest: u64) {
        self.attempted += 1;
        match self.expected {
            None => self.expected = Some(digest),
            Some(e) if e != digest => {
                self.failed += 1;
                eprintln!(
                    "perf: {}: outcome digest {digest:016x}, expected {e:016x}",
                    self.name
                );
            }
            Some(_) => {}
        }
    }
}

fn reference_digest(workload: &str, seed: u64) -> Result<Option<u64>, String> {
    let v = Value::parse(REFERENCE).map_err(|e| format!("reference.json: {e}"))?;
    let Some(d) = v.get(workload).and_then(|w| w.get(&seed.to_string())) else {
        return Ok(None);
    };
    d.as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(Some)
        .ok_or(format!(
            "reference.json: bad digest for {workload} seed {seed}"
        ))
}

/// Seconds taken by one end-to-end run, after checking its digest.
fn timed_plain(shape: &Shape, check: &mut Check) -> f64 {
    let t = Instant::now();
    let digest = shape.run_plain();
    let secs = t.elapsed().as_secs_f64();
    check.see(digest);
    secs
}

fn measure(w: Workload, a: &RunArgs) -> Result<WorkloadResult, String> {
    let shape = w.shape(a.seed);
    let window = Duration::from_secs(a.seconds);
    let mut check = Check {
        name: w.name,
        expected: reference_digest(w.name, a.seed)?,
        attempted: 0,
        failed: 0,
    };
    // Warm-up: page in the code and let the allocator settle.
    timed_plain(&shape, &mut check);

    let (mut end_to_end, mut host_scale) = (Vec::new(), None);
    if a.trace != Some(true) {
        // Set-up probes run serially; end-to-end runs on the trial pool.
        let (setup, _) = host::scaled_samples(1, SETUP_PROBES, SETUP_MIN, || shape.setup_probe());
        let (walls, scale) = host::scaled_samples(shape.workers(), 1, window, || {
            timed_plain(&shape, &mut check)
        });
        host_scale = Some(scale);
        let rss = [host::peak_rss_mb()?];
        for m in END_TO_END {
            let samples: &[f64] = match m.name {
                "wall_s" => &walls,
                "setup_s" => &setup,
                _ => &rss,
            };
            end_to_end.push((m, Quartiles::of(samples)));
        }
    }

    let mut per_layer = Vec::new();
    if a.trace != Some(false) {
        let (mut plain, mut traced, mut layers) = (Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<SpanRecorder> = None;
        let t0 = Instant::now();
        while traced.is_empty() || t0.elapsed() < window {
            plain.push(timed_plain(&shape, &mut check));
            let t = Instant::now();
            let r = shape.replay();
            let secs = t.elapsed().as_secs_f64();
            check.see(r.digest);
            traced.push(secs);
            layers.push(layer_metrics(&r, secs));
            first.get_or_insert(r.rec);
        }
        let median = |v: &[f64]| Quartiles::of(v).median;
        for (name, unit) in PER_LAYER {
            let values: Vec<f64> = layers.iter().map(|m| m[name]).collect();
            per_layer.push((name, unit, median(&values)));
        }
        let overhead = 100.0 * (median(&traced) / median(&plain) - 1.0);
        per_layer.push((OVERHEAD_PCT.0, OVERHEAD_PCT.1, overhead));
        if let Some(rec) = first {
            let path = a
                .out
                .with_file_name(format!("spans_{}_{}.jsonl", w.name, a.seed));
            write_file(&path, |f| rec.write_jsonl(BufWriter::new(f)))?;
        }
    }

    Ok(WorkloadResult {
        name: w.name,
        digest: check.expected.unwrap_or_default(),
        attempted: check.attempted,
        failed: check.failed,
        host_scale,
        end_to_end,
        per_layer,
    })
}

fn write_file(path: &Path, write: impl FnOnce(File) -> std::io::Result<()>) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    File::create(path)
        .and_then(write)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(a: &RunArgs) -> Result<bool, String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (json, pass) = match a.workloads[..] {
        [w] => {
            let r = measure(w, a)?;
            eprint!("{}", r.table(a.seed));
            println!("{}", r.summary_line());
            let pass = r.failed == 0;
            (result_json(a.seed, a.seconds, cpus, &[r]), pass)
        }
        _ => run_each_in_a_child(a, cpus)?,
    };
    write_file(&a.out, |mut f| {
        std::io::Write::write_all(&mut f, json.as_bytes())
    })?;
    eprintln!("perf: wrote {} (host cpus: {cpus})", a.out.display());
    Ok(pass)
}

/// Run every workload in a `perf --workload` process of its own and
/// merge their result files. The allocator keeps memory a workload has
/// freed, so in a shared process every later workload's peak RSS would
/// start from the largest earlier one.
fn run_each_in_a_child(a: &RunArgs, cpus: usize) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let (mut docs, mut pass) = (Vec::new(), true);
    for w in &a.workloads {
        let out = a
            .out
            .with_file_name(format!("perf_{}_{}.json", w.name, a.seed));
        // A child that fails before writing must not leave an older file
        // to be read in its place.
        let _ = std::fs::remove_file(&out);
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .arg("--out")
            .arg(&out);
        if let Some(trace) = a.trace {
            child.args(["--trace", if trace { "1" } else { "0" }]);
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        pass &= status.success();
        docs.push(
            std::fs::read_to_string(&out).map_err(|e| format!("reading {}: {e}", out.display()))?,
        );
    }
    Ok((merge_results(a.seed, a.seconds, cpus, &docs)?, pass))
}

fn compare_files(base: &Path, new: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {}: {e}", p.display()))
            .and_then(|t| Value::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (report, pass) = compare(&load(base)?, &load(new)?)?;
    print!("{report}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(msg) => {
            eprintln!("perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Cmd::Run(a)) => run(&a),
        Ok(Cmd::Compare(base, new)) => compare_files(&base, &new),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::FAILURE
        }
    }
}
