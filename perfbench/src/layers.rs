//! The traced run's view of the imaging path: each public layer call
//! that `Authenticator::authenticate_train_claimed` and
//! `enrollment_features` make, issued one by one from the benchmark so
//! each can be timed from outside.
//!
//! Attribution of overlapped calls: the per-beep calls (band-pass
//! preprocessing, imaging) fan out over `par::parallel_map_indexed` at
//! the pipeline's thread count, exactly as the pipeline does. Each
//! call's own duration is its per-call sample; the stage's share of the
//! operation's path is the fan-out's wall time.

use crate::stats::{self, ms, ratio, Metrics};
use crate::Report;
use echo_ml::GrayImage;
use echo_sim::BeepCapture;
use echoimage_core::distance::{estimate_distance, resolve_covariance};
use echoimage_core::imaging::construct_image_with_covariance;
use echoimage_core::par::parallel_map_indexed;
use echoimage_core::pipeline::EchoImagePipeline;
use echoimage_core::EchoImageError;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer samples, keyed by metric name.
#[derive(Debug, Default)]
pub struct Timings(pub BTreeMap<&'static str, Vec<f64>>);

impl Timings {
    /// Records one sample.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The median of a layer's samples, or 0 when the layer never ran
    /// (it is not on this workload's path).
    pub fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|s| crate::stats::median(s))
            .unwrap_or(0.0)
    }

    /// Records the median of every layer that ran as its metric.
    pub fn put_medians(&self, m: &mut Metrics) {
        for (name, samples) in &self.0 {
            m.put(name, crate::stats::median(samples).unwrap_or(0.0));
        }
    }
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Band-pass, range, covariance and image one train at each plane in
/// `plane_offsets` (empty: the estimated plane only) — the calls of
/// `images_from_train_multi_plane_traced`, timed one by one. Returns the
/// images, the estimated distance and the stages' summed wall time (ms).
pub fn image_train(
    p: &EchoImagePipeline,
    train: &[BeepCapture],
    plane_offsets: &[f64],
    tm: &mut Timings,
) -> Result<(Vec<GrayImage>, f64, f64), EchoImageError> {
    let threads = p.config().threads;
    let (pre, wall) =
        timed(|| parallel_map_indexed(train, threads, |_, c| timed(|| p.preprocess(c))));
    let mut path = ms(wall);
    let mut filtered = Vec::with_capacity(pre.len());
    for (f, d) in pre {
        tm.add("dsp.preprocess_ms", ms(d));
        filtered.push(f);
    }
    let (est, d) = timed(|| estimate_distance(&filtered, p.array(), p.config()));
    tm.add("distance.estimate_ms", ms(d));
    path += ms(d);
    let est = est?;
    let (cov, d) = timed(|| resolve_covariance(&filtered, p.array(), p.config()));
    tm.add("distance.covariance_ms", ms(d));
    path += ms(d);
    let mut planes = vec![est.horizontal_distance];
    planes.extend(
        plane_offsets
            .iter()
            .map(|o| (est.horizontal_distance + o).max(0.2)),
    );
    let jobs: Vec<(usize, f64)> = (0..filtered.len())
        .flat_map(|ci| planes.iter().map(move |&d| (ci, d)))
        .collect();
    let inner = p.config().clone().with_threads(1);
    let (out, wall) = timed(|| {
        parallel_map_indexed(&jobs, threads, |_, &(ci, d)| {
            timed(|| construct_image_with_covariance(&filtered[ci], p.array(), d, &cov, &inner))
        })
    });
    path += ms(wall);
    let mut images = Vec::with_capacity(out.len());
    for (img, d) in out {
        tm.add("imaging.image_ms", ms(d));
        images.push(img?);
    }
    Ok((images, est.horizontal_distance, path))
}

/// The traced run's per-layer metrics for an in-process workload:
/// layer medians, cache hit rates over the timed phase, audits per
/// operation, and the share of the end-to-end median no timed layer
/// accounts for.
pub fn per_layer(
    report: &mut Report,
    tm: &Timings,
    before: &echo_obs::MetricsSnapshot,
    audits: usize,
    image_ops: usize,
    e2e: &[f64],
    path: &[f64],
) {
    let images = tm.0.get("imaging.image_ms").map_or(0, Vec::len);
    let e2e_p50 = stats::median(e2e).unwrap_or(0.0);
    let path_p50 = stats::median(path).unwrap_or(0.0);
    println!(
        "attribution: per-beep calls fan out over the pipeline's own pool; a stage's path \
         share is its fan-out wall time. e2e p50 {e2e_p50:.4} ms, layer path p50 {path_p50:.4} ms"
    );
    let m = &mut report.metrics;
    tm.put_medians(m);
    m.put("imaging.images_per_op", ratio(images, image_ops));
    crate::cache_hit_rates(m, before);
    m.put("obs.audits_per_op", ratio(audits, report.attempted));
    if e2e_p50 > 0.0 {
        m.put("unattributed_share", (e2e_p50 - path_p50) / e2e_p50);
    }
}
