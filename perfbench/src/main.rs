//! EchoImage benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <train_auth|enroll|serve> --seed N --seconds S
//!           --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then one `RESULT {json}` line that
//! `run.py` turns into the benchmark's result. With `--trace 0` the
//! JSON carries this process's end-to-end metrics plus the latency
//! samples and ratio counts behind them, so `run.py` can pool several
//! processes; with `--trace 1` it carries the per-layer metrics.

mod enroll;
mod layers;
mod population;
mod serve;
mod stats;
mod train_auth;

use stats::Metrics;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`. Every untraced run reports each
/// of them; `run.py` adds `setup_s` from several set-ups.
pub const END_TO_END: &[(&str, &str)] = &[
    ("auth_p50_ms", "ms"),
    ("auth_slo_rate", "ratio"),
    ("enroll_p50_ms", "ms"),
    ("identify_p50_ms", "ms"),
    ("genuine_accept_rate", "ratio"),
    ("impostor_reject_rate", "ratio"),
    ("identify_correct_rate", "ratio"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer that is
/// not on a workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dsp.preprocess_ms", "ms"),
    ("distance.estimate_ms", "ms"),
    ("distance.covariance_ms", "ms"),
    ("imaging.image_ms", "ms"),
    ("imaging.images_per_op", "count"),
    ("spatial.screen_ms", "ms"),
    ("spatial.replay_reject_rate", "ratio"),
    ("augment.sweep_ms", "ms"),
    ("features.image_ms", "ms"),
    ("features.batch_images", "count"),
    ("auth.decide_us", "us"),
    ("svm.train_ms", "ms"),
    ("tenant.enroll_ms", "ms"),
    ("store.identify_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("batcher.mean_batch", "count"),
    ("batcher.wait_ms", "ms"),
    ("serve.shed_share", "ratio"),
    ("generator.late_p99_ms", "ms"),
    ("cache.steering_hit_rate", "ratio"),
    ("cache.template_hit_rate", "ratio"),
    ("cache.fft_plan_hit_rate", "ratio"),
    ("obs.audits_per_op", "ratio"),
    ("unattributed_share", "ratio"),
    ("run.threads", "count"),
];

/// Hit rates of the three process caches since `before`.
pub fn cache_hit_rates(m: &mut Metrics, before: &echo_obs::MetricsSnapshot) {
    let after = echo_obs::snapshot();
    for (metric, cache) in [
        ("cache.steering_hit_rate", "steering_cache"),
        ("cache.template_hit_rate", "template_cache"),
        ("cache.fft_plan_hit_rate", "fft_plan_cache"),
    ] {
        let delta = |suffix: &str| {
            let name = format!("{cache}.{suffix}");
            after.counter(&name).unwrap_or(0) - before.counter(&name).unwrap_or(0)
        };
        let (hit, miss) = (delta("hit"), delta("miss"));
        m.put(metric, stats::ratio(hit as usize, (hit + miss) as usize));
    }
}

/// One invocation's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `ECHOIMAGE_THREADS` as the program reads it (0 = all cores).
    pub threads: usize,
    /// When `main` started: the zero of `setup_s`.
    pub start: Instant,
}

impl Ctx {
    /// The timed phase's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Named output-check failures; empty when every output was right.
    pub checks: Vec<String>,
    /// FNV-1a digest of one cycle's decisions.
    pub digest: u64,
    pub setup_s: f64,
    /// Per-operation latency samples (ms) behind each `*_p50_ms` metric.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Numerator and denominator behind each ratio metric.
    pub counts: Vec<(&'static str, (usize, usize))>,
    /// Directly measured metrics (per-layer ones, and `peak_rss_mb`).
    pub metrics: Metrics,
}

impl Report {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks.push(what());
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload <train_auth|enroll|serve> --seed N --seconds S \
     --trace <0|1>"
        .to_string()
}

fn parse() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                })
            }
            _ => return Err(format!("unrecognised argument `{a}`\n{}", usage())),
        }
    }
    let threads = echoimage_core::par::threads_from_env().map_err(|e| e.to_string())?;
    let ctx = Ctx {
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        threads,
        start: Instant::now(),
    };
    Ok((workload.ok_or_else(usage)?, ctx))
}

/// `VmHWM` (peak resident set) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let resolved = echoimage_core::par::effective_threads(ctx.threads);
    let simd = echo_dsp::simd::active().name();
    println!(
        "workload {workload}: seed {}, {} s, trace {}, threads {} (ECHOIMAGE_THREADS={}), \
         simd {simd}, obs metrics {}, span tracing {}",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        resolved,
        ctx.threads,
        if echo_obs::is_enabled() { "on" } else { "off" },
        if echo_obs::trace_enabled() {
            "on"
        } else {
            "off"
        },
    );
    let report = match workload.as_str() {
        "train_auth" => train_auth::run(&ctx),
        "enroll" => enroll::run(&ctx),
        "serve" => serve::run(&ctx),
        other => Err(format!("unknown workload `{other}`\n{}", usage())),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (table, missing) = if ctx.trace {
        report.metrics.put("run.threads", resolved as f64);
        (PER_LAYER, Some(0.0))
    } else {
        for (name, samples) in &report.samples {
            report
                .metrics
                .put(name, stats::median(samples).unwrap_or(0.0));
        }
        for &(name, (num, den)) in &report.counts {
            report.metrics.put(name, stats::ratio(num, den));
        }
        report.metrics.put("setup_s", report.setup_s);
        match peak_rss_mb() {
            Some(mb) => report.metrics.put("peak_rss_mb", mb),
            None => report
                .checks
                .push("peak_rss_mb: /proc/self/status has no VmHWM".into()),
        }
        for (name, _) in END_TO_END {
            let v = report.metrics.0.get(*name).copied();
            report.check(v.is_some_and(|v| v.is_finite() && v > 0.0), || {
                format!("{name}: not measured or not positive ({v:?})")
            });
        }
        (END_TO_END, None)
    };
    for c in &report.checks {
        println!("check failed: {c}");
    }
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|c| format!("\"{}\"", echo_obs::escape_json(c)))
        .collect();
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(n, v)| {
            let v: Vec<String> = v.iter().map(|x| stats::num(*x)).collect();
            format!("\"{n}\": [{}]", v.join(", "))
        })
        .collect();
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(n, (a, b))| format!("\"{n}\": [{a}, {b}]"))
        .collect();
    println!(
        "RESULT {{\"workload\": \"{workload}\", \"trace\": {}, \"threads\": {resolved}, \
         \"simd\": \"{simd}\", \"setup_s\": {}, \"attempted\": {}, \"failed\": {}, \
         \"digest\": \"{:016x}\", \"checks\": [{}], \"metrics\": {}, \"samples\": {{{}}}, \
         \"counts\": {{{}}}}}",
        ctx.trace as u8,
        stats::num(report.setup_s),
        report.attempted,
        report.failed,
        report.digest,
        checks.join(", "),
        report.metrics.to_json(table, missing),
        samples.join(", "),
        counts.join(", ")
    );
    ExitCode::SUCCESS
}
