//! `perfbench` — the end-to-end and per-layer query benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: an analyst issues a
//! query and waits for its result, for `--seconds`. Inputs are generated
//! from `--seed`; every result is checked against a reference after the
//! loop. With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` every other query is traced and the line
//! carries the per-layer metrics. The exit code is 1 when any result check
//! failed. See `README.md` beside this file.

mod check;
mod dashboard_taxi;
mod exact_counties;
mod procfs;
mod report;
mod stats;
mod stream_counties;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <stream-counties|dashboard-taxi|exact-counties> \
                     --seed <n> --seconds <s> --trace <0|1> [--negative-control]";

/// How many times a run builds its workload's set-up; `setup_s` is the
/// median, so one slow allocation does not decide it.
const SETUP_REPS: usize = 5;

/// Seeded `hour < h` filters draw `h` from this narrow band (the hour
/// column spans 0..168), so each keeps about half the rows: seeds change
/// the data and the draws, not the amount of work asked for.
pub const HOUR_BAND: (u64, u64) = (80, 88);

/// Everything a workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Deliberately corrupt one result before the checks, to show that a
    /// wrong answer fails the run.
    pub negative_control: bool,
    /// Pool width every executor is pinned to: the machine's core count.
    pub nproc: usize,
    /// Where data files, reports and spans go (inside the benchmark).
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// A generator for one named use of the seed, so adding a draw in one
    /// place does not shift the draws of another.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Run `setup` [`SETUP_REPS`] times, dropping each result before the
    /// next is built; returns the last and the median time in seconds.
    pub fn timed_setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, f64) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(setup());
            times.push(t0.elapsed().as_secs_f64());
        }
        (last.expect("SETUP_REPS > 0"), stats::median(&times))
    }

    /// Run metadata printed with every result.
    pub fn meta(&self) -> Vec<(&'static str, String)> {
        vec![
            ("seed", self.seed.to_string()),
            ("nproc", self.nproc.to_string()),
            ("pool_width", self.nproc.to_string()),
            ("commit", commit()),
            ("engine_source_digest", source_digest()),
            ("seconds", self.seconds.to_string()),
            ("traced", self.trace.to_string()),
            (
                "reads",
                "unpaced; table files are freshly written, so reads are served from the page cache"
                    .to_string(),
            ),
            (
                "calibration",
                "builtin, feedback on, not persisted".to_string(),
            ),
        ]
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit when a git directory is present, else "unknown"
/// (`engine_source_digest` still identifies the code).
fn commit() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the engine's sources and manifests (paths and contents,
/// in sorted order), so two runs can be matched to the same code without
/// a git directory.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    negative_control: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        negative_control: args.iter().any(|a| a == "--negative-control"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        negative_control: args.negative_control,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let run = match args.workload.as_str() {
        "stream-counties" => stream_counties::run,
        "dashboard-taxi" => dashboard_taxi::run,
        "exact-counties" => exact_counties::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(3);
        }
    };
    if let Err(e) = report.emit(&ctx) {
        eprintln!("perfbench: could not write the report: {e}");
        return ExitCode::from(3);
    }
    if report.checks.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload w --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("w", 7, 2.5, true)
        );
        assert!(!a.negative_control);
        assert!(parse_args(&argv("--workload w --seed 7 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload w --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload w --seed 1 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let ctx = |seed| Ctx {
            seed,
            seconds: 1.0,
            trace: false,
            negative_control: false,
            nproc: 1,
            out_dir: PathBuf::new(),
        };
        let draw = |seed, stream| ctx(seed).rng(stream).next_u64();
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut v: Vec<u32> = (0..20).collect();
        ctx(3).rng(0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
