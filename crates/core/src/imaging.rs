//! Acoustic image construction (paper §V-C).
//!
//! A virtual square imaging plane is erected parallel to the x–o–z plane
//! at the estimated horizontal distance `D_p`, divided into K grid cells.
//! For each cell the array is steered (Eq. 11–12 give the cell's angles),
//! the beamformed signal is time-gated around the expected round-trip
//! delay `2·D_k/c ± d′` (only echoes whose path length matches the cell's
//! distance can come from the user's surface there), and the pixel value
//! is the L2 norm of the gated segment.
//!
//! The pixel is still that L2 norm of the gated *real* beamformed
//! signal, `√Σₜ Re(wᴴxₜ)²`, but it is evaluated as a quadratic form
//! rather than by beamforming every gated sample. With `y = wᴴx`,
//! `Re(y)² = ½|y|² + ½Re(y²)`, so over a gate
//!
//! ```text
//! Σₜ Re(wᴴxₜ)² = ½·wᴴAw + ½·Re(wᴴB w̄),   A = Σₜ xₜxₜᴴ,  B = Σₜ xₜxₜᵀ.
//! ```
//!
//! A and B are read off prefix sums over the capture's analytic
//! channels (a [`GateTable`], built once per capture and shared by every
//! plane), and each cell's weights (a [`PlaneSweep`], designed once per
//! train and plane) expand to a `2m² + m`-term coefficient vector. A
//! pixel then costs one dot product instead of `m` complex multiplies
//! per gated sample.

use crate::config::{BeamformerKind, PipelineConfig};
use crate::distance::{analytic_channels, AnalyticChannels};
use crate::error::EchoImageError;
use crate::par::parallel_map_indexed;
use crate::steering_cache::{steering_field, SteeringField};
use echo_array::MicArray;
use echo_beamform::{das_weights, MvdrDesigner, SpatialCovariance};
use echo_dsp::{Complex, FftScratch, SPEED_OF_SOUND};
use echo_ml::GrayImage;
use echo_obs::TraceCtx;
use echo_sim::BeepCapture;
use std::sync::Arc;

/// Constructs the acoustic image `AI_l` from one band-passed beep capture.
///
/// `horizontal_distance` is the `D_p` estimated by
/// [`crate::distance::estimate_distance`].
///
/// # Errors
///
/// * [`EchoImageError::InvalidParameter`] — non-positive distance or an
///   array/capture mismatch.
/// * [`EchoImageError::Beamforming`] — MVDR weight design failed.
///
/// # Example
///
/// ```
/// use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
/// use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
/// use echoimage_core::imaging::construct_image;
/// use echo_array::MicArray;
///
/// let scene = Scene::new(SceneConfig::laboratory_quiet(2));
/// let body = BodyModel::from_seed(5);
/// let cap = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
/// let pipeline = EchoImagePipeline::new(PipelineConfig::default());
/// let filtered = pipeline.preprocess(&cap);
/// let image = construct_image(&filtered, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
/// assert_eq!(image.width(), 32);
/// ```
pub fn construct_image(
    capture: &BeepCapture,
    array: &MicArray,
    horizontal_distance: f64,
    config: &PipelineConfig,
) -> Result<GrayImage, EchoImageError> {
    let cov = crate::distance::resolve_covariance(std::slice::from_ref(capture), array, config);
    construct_image_with_covariance(capture, array, horizontal_distance, &cov, config)
}

/// [`construct_image`] with an explicit noise covariance — used when one
/// covariance has been pooled over a whole beep train, which keeps the
/// MVDR weights (and therefore the image) stable from beep to beep.
///
/// # Errors
///
/// See [`construct_image`].
pub fn construct_image_with_covariance(
    capture: &BeepCapture,
    array: &MicArray,
    horizontal_distance: f64,
    cov: &SpatialCovariance,
    config: &PipelineConfig,
) -> Result<GrayImage, EchoImageError> {
    construct_image_with_covariance_traced(
        capture,
        array,
        horizontal_distance,
        cov,
        config,
        TraceCtx::none(),
        0,
    )
}

/// [`construct_image_with_covariance`] recording a `stage.imaging`
/// trace span as child `lidx` of `ctx` (grid size and channel count as
/// attributes; `lidx` is the beep index within its train).
///
/// The analytic channels, the cell weights and the gate table are built
/// for this one call, through the same functions the pipeline shares
/// across a train, so the image is bit-identical to the one
/// [`crate::pipeline::EchoImagePipeline::images_from_train`] builds for
/// the same capture, plane and covariance.
///
/// # Errors
///
/// See [`construct_image`].
pub fn construct_image_with_covariance_traced(
    capture: &BeepCapture,
    array: &MicArray,
    horizontal_distance: f64,
    cov: &SpatialCovariance,
    config: &PipelineConfig,
    ctx: TraceCtx,
    lidx: u64,
) -> Result<GrayImage, EchoImageError> {
    check_plane(horizontal_distance)?;
    if capture.num_channels() != array.len() {
        return Err(EchoImageError::InvalidParameter(
            "array geometry does not match the capture channel count",
        ));
    }
    if capture.is_empty() {
        // A zero-sample capture would silently image to all-black; the
        // fault layer produces exactly these, so fail loudly instead.
        return Err(EchoImageError::InvalidParameter("capture holds no samples"));
    }
    let analytic = analytic_channels(capture, &mut FftScratch::new());
    let sweep = PlaneSweep::design(array, horizontal_distance, cov, config, config.threads)?;
    let mut images = image_planes(
        capture,
        &analytic,
        std::slice::from_ref(&sweep),
        config,
        ctx,
        lidx,
    );
    Ok(images.pop().expect("one image per plane"))
}

fn check_plane(horizontal_distance: f64) -> Result<(), EchoImageError> {
    if horizontal_distance.is_finite() && horizontal_distance > 0.0 {
        Ok(())
    } else {
        Err(EchoImageError::InvalidParameter(
            "horizontal distance must be positive",
        ))
    }
}

/// Where the echo time gates of one capture fall.
#[derive(Debug, Clone, Copy)]
struct GateGeometry {
    preroll: usize,
    len: usize,
    fs: f64,
    guard: usize,
    chirp_len: usize,
}

impl GateGeometry {
    fn new(capture: &BeepCapture, config: &PipelineConfig) -> Self {
        let fs = capture.sample_rate();
        GateGeometry {
            preroll: capture.preroll(),
            len: capture.len(),
            fs,
            guard: (config.imaging.safeguard * fs).round() as usize,
            chirp_len: config.beep.chirp_samples(),
        }
    }

    /// The time gate `[start, end)` of a cell at distance `distance`:
    /// echoes from it arrive after the round trip 2·D_k/c (paper
    /// approximation: speaker ≈ array origin). Empty when `start >= end`.
    fn gate(&self, distance: f64) -> (usize, usize) {
        let center = self.preroll as f64 + 2.0 * distance / SPEED_OF_SOUND * self.fs;
        let start = (center as isize - self.guard as isize).max(0) as usize;
        let end = ((center as usize).saturating_add(self.guard + self.chirp_len)).min(self.len);
        (start, end)
    }

    /// `[first, end)`: the union of every gate of `sweeps`. Gates move
    /// monotonically with cell distance, so the nearest and farthest
    /// cells bound it.
    fn span(&self, sweeps: &[PlaneSweep]) -> (usize, usize) {
        let first = sweeps.iter().map(|s| self.gate(s.min_distance).0).min();
        let end = sweeps.iter().map(|s| self.gate(s.max_distance).1).max();
        (first.unwrap_or(0), end.unwrap_or(0))
    }

    /// No gate opens before this sample: a cell at a positive distance
    /// has its gate centre at or after the preroll. Prefix sums start
    /// here, whatever planes share them, so a pixel's bits do not
    /// depend on which other planes were imaged alongside it.
    fn origin(&self) -> usize {
        self.preroll.saturating_sub(self.guard)
    }
}

/// Number of terms in the quadratic form of an `m`-microphone array:
/// per channel pair `i ≤ j`, `Aᵢⱼ` (real on the diagonal) and `Bᵢⱼ`.
fn form_len(m: usize) -> usize {
    2 * m * m + m
}

/// Writes the coefficients `c` of one cell's weights `w` into `out`,
/// laid out like a [`GateTable`] row, so that
/// `Σₜ Re(wᴴxₜ)² = c · (row_end − row_start)`.
fn write_form(w: &[Complex], out: &mut [f64]) {
    let mut k = 0;
    for (i, &w_i) in w.iter().enumerate() {
        let wi = w_i.conj();
        // Diagonal: ½|wᵢ|²·Aᵢᵢ + ½·Re(w̄ᵢ²·Bᵢᵢ).
        let b = wi * wi;
        out[k..k + 3].copy_from_slice(&[0.5 * w_i.norm_sqr(), 0.5 * b.re, -0.5 * b.im]);
        k += 3;
        // Off-diagonal pairs appear twice in each form: the halves
        // cancel, leaving Re(w̄ᵢwⱼ·Aᵢⱼ) + Re(w̄ᵢw̄ⱼ·Bᵢⱼ).
        for &wj in &w[i + 1..] {
            let a = wi * wj;
            let b = wi * wj.conj();
            out[k..k + 4].copy_from_slice(&[a.re, -a.im, b.re, -b.im]);
            k += 4;
        }
    }
}

/// Prefix sums of a capture's analytic outer products: the row of
/// sample `t` holds, for every channel pair `i ≤ j`, `Σ xᵢx̄ⱼ` and
/// `Σ xᵢxⱼ` over samples `[origin, t)`, so any gate's sums are a
/// difference of two rows.
///
/// The sums run from the gate origin, where the strong direct chirp
/// arrives, so they are compensated (Kahan): each row carries the
/// rounding its running sum dropped, and a gate's difference stays as
/// accurate as summing the gate alone. Rows before the earliest gate
/// are accumulated but not stored.
struct GateTable {
    first: usize,
    width: usize,
    /// Per stored row: `width` running sums, then `width` compensations.
    rows: Vec<f64>,
}

impl GateTable {
    /// Sums samples `[origin, end)` of `analytic`, storing the rows of
    /// samples `first..=end`.
    fn new(analytic: &[Vec<Complex>], origin: usize, first: usize, end: usize) -> Self {
        let m = analytic.len();
        let width = form_len(m);
        let mut rows = Vec::with_capacity((end + 1).saturating_sub(first) * 2 * width);
        let mut sum = vec![0.0; width];
        let mut comp = vec![0.0; width];
        for t in origin..=end {
            if t >= first {
                rows.extend_from_slice(&sum);
                rows.extend_from_slice(&comp);
            }
            if t == end {
                break;
            }
            let mut k = 0;
            let mut add = |v: f64| {
                let y = v - comp[k];
                let next = sum[k] + y;
                comp[k] = (next - sum[k]) - y;
                sum[k] = next;
                k += 1;
            };
            for (i, ch) in analytic.iter().enumerate() {
                let xi = ch[t];
                let b = xi * xi;
                add(xi.norm_sqr());
                add(b.re);
                add(b.im);
                for other in &analytic[i + 1..] {
                    let xj = other[t];
                    let a = xi * xj.conj();
                    let b = xi * xj;
                    add(a.re);
                    add(a.im);
                    add(b.re);
                    add(b.im);
                }
            }
        }
        GateTable { first, width, rows }
    }

    /// `Σₜ Re(wᴴxₜ)²` over `[start, end)` for a cell's coefficients.
    fn energy(&self, coefs: &[f64], start: usize, end: usize) -> f64 {
        let w = self.width;
        let row = |t: usize| &self.rows[(t - self.first) * 2 * w..][..2 * w];
        let (lo, hi) = (row(start), row(end));
        let (sh, ch) = hi.split_at(w);
        let (sl, cl) = lo.split_at(w);
        let term = |k: usize| coefs[k] * ((sh[k] - sl[k]) - (ch[k] - cl[k]));
        // Four interleaved partial sums break the serial add chain.
        let mut acc = [0.0; 4];
        let body = w - w % 4;
        for k in (0..body).step_by(4) {
            for (lane, a) in acc.iter_mut().enumerate() {
                *a += term(k + lane);
            }
        }
        for k in body..w {
            acc[k - body] += term(k);
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }
}

/// One imaging plane designed for a train: the plane's steering field
/// and every cell's beamformer weights. The weights depend on the plane,
/// the array and the noise covariance, never on a capture, so every
/// beep of a train images through the same sweep.
pub(crate) struct PlaneSweep {
    field: Arc<SteeringField>,
    /// `m` weights per cell, row-major.
    weights: Vec<Complex>,
    m: usize,
    /// The nearest and farthest cell distances: their gates open first
    /// and close last.
    min_distance: f64,
    max_distance: f64,
}

impl PlaneSweep {
    /// Designs the beamformer weights of every cell of the plane at
    /// `horizontal_distance`, sweeping rows over `threads` workers.
    pub(crate) fn design(
        array: &MicArray,
        horizontal_distance: f64,
        cov: &SpatialCovariance,
        config: &PipelineConfig,
        threads: usize,
    ) -> Result<Self, EchoImageError> {
        check_plane(horizontal_distance)?;
        let icfg = &config.imaging;
        // The steering vectors and cell distances depend only on the
        // sweep geometry: fetch the shared field (computed once per
        // geometry, process-wide).
        let field = steering_field(
            array,
            icfg,
            horizontal_distance,
            config.beep.center_frequency(),
        );
        // MVDR inverts one covariance for the whole sweep; precompute it.
        let designer = match icfg.beamformer {
            BeamformerKind::Mvdr => Some(MvdrDesigner::new(cov)?),
            BeamformerKind::DelayAndSum => None,
        };
        let m = array.len();
        let rows: Vec<usize> = (0..icfg.grid_n).collect();
        let row_weights = parallel_map_indexed(&rows, threads, |_, &row| {
            let mut weights = vec![Complex::ZERO; icfg.grid_n * m];
            for (col, out) in weights.chunks_exact_mut(m).enumerate() {
                let steering = &field.cell(col, row).steering;
                match &designer {
                    Some(d) => d.weights_into(steering, out)?,
                    None => out.copy_from_slice(&das_weights(steering)),
                }
            }
            Ok::<Vec<Complex>, EchoImageError>(weights)
        });
        let mut weights = Vec::with_capacity(icfg.grid_n * icfg.grid_n * m);
        for row in row_weights {
            weights.extend(row?);
        }
        let distances = (0..icfg.grid_n)
            .flat_map(|row| (0..icfg.grid_n).map(move |col| (col, row)))
            .map(|(col, row)| field.cell(col, row).distance);
        let min_distance = distances.clone().fold(f64::INFINITY, f64::min);
        let max_distance = distances.fold(0.0, f64::max);
        Ok(PlaneSweep {
            field,
            weights,
            m,
            min_distance,
            max_distance,
        })
    }

    fn image(&self, table: &GateTable, gates: &GateGeometry) -> GrayImage {
        let n = self.field.grid_n();
        let mut image = GrayImage::zeros(n, n);
        let mut form = vec![0.0; form_len(self.m)];
        for row in 0..n {
            for col in 0..n {
                let (start, end) = gates.gate(self.field.cell(col, row).distance);
                if start >= end {
                    continue;
                }
                let k = (row * n + col) * self.m;
                write_form(&self.weights[k..k + self.m], &mut form);
                let energy = table.energy(&form, start, end);
                image.set(col, row, energy.max(0.0).sqrt());
            }
        }
        image
    }
}

/// Images one capture at every plane of `sweeps`, from its analytic
/// channels. Each image records a `stage.imaging` span as child
/// `lidx + plane` of `ctx`; the first one also covers building the
/// capture's gate table, which spans the union of every plane's gates.
///
/// Deliberately *no* steering-cache hit/miss attribute: callers imaging
/// in parallel coalesce on one shared cache slot, so *which* one
/// classifies as the miss is scheduler-dependent even though the
/// aggregate counters are not. Attributing it per-span would break the
/// thread-count determinism contract (see DESIGN.md §9).
pub(crate) fn image_planes(
    capture: &BeepCapture,
    analytic: &AnalyticChannels,
    sweeps: &[PlaneSweep],
    config: &PipelineConfig,
    ctx: TraceCtx,
    lidx: u64,
) -> Vec<GrayImage> {
    let gates = GateGeometry::new(capture, config);
    let (first, end) = gates.span(sweeps);
    let mut table = None;
    let mut images = Vec::with_capacity(sweeps.len());
    for (plane, sweep) in sweeps.iter().enumerate() {
        let _span = echo_obs::span!("stage.imaging");
        let mut tspan = ctx.child_at("stage.imaging", lidx + plane as u64);
        tspan.attr_u64("grid_n", config.imaging.grid_n as u64);
        tspan.attr_u64("channels", analytic.len() as u64);
        echo_obs::counter!("pipeline.images_constructed").inc();
        let table =
            table.get_or_insert_with(|| GateTable::new(analytic, gates.origin(), first, end));
        images.push(sweep.image(table, &gates));
    }
    images
}

/// Drops the analytic samples past the last gate of `sweeps`, which
/// imaging never reads, so a train's analytic data shrinks to the
/// imaging window once ranging is done with it.
pub(crate) fn release_past_gates(
    capture: &BeepCapture,
    analytic: &mut AnalyticChannels,
    sweeps: &[PlaneSweep],
    config: &PipelineConfig,
) {
    let (_, end) = GateGeometry::new(capture, config).span(sweeps);
    for channel in analytic {
        channel.truncate(end);
        channel.shrink_to_fit();
    }
}

/// [`construct_image`] restricted to a microphone subset: the capture's
/// channels and the array's elements are both narrowed to `healthy`
/// (ascending original indices, at least two) before imaging, so a
/// capture with faulted channels images from its surviving microphones
/// instead of letting a dead or saturated element poison the sweep.
/// With a full mask this is exactly [`construct_image`].
///
/// # Errors
///
/// [`EchoImageError::InvalidParameter`] for a malformed mask (empty,
/// unsorted, out of range, or fewer than two survivors), plus every
/// [`construct_image`] error.
pub fn construct_image_masked(
    capture: &BeepCapture,
    array: &MicArray,
    healthy: &[usize],
    horizontal_distance: f64,
    config: &PipelineConfig,
) -> Result<GrayImage, EchoImageError> {
    validate_mask(capture, array, healthy)?;
    if healthy.len() == array.len() {
        return construct_image(capture, array, horizontal_distance, config);
    }
    let sub_capture = capture.select_channels(healthy);
    let sub_array = array.subset(healthy);
    construct_image(&sub_capture, &sub_array, horizontal_distance, config)
}

/// Checks a mic-subset mask against a capture/array pair.
pub(crate) fn validate_mask(
    capture: &BeepCapture,
    array: &MicArray,
    healthy: &[usize],
) -> Result<(), EchoImageError> {
    if capture.num_channels() != array.len() {
        return Err(EchoImageError::InvalidParameter(
            "array geometry does not match the capture channel count",
        ));
    }
    if healthy.len() < 2 {
        return Err(EchoImageError::InvalidParameter(
            "a mic-subset mask needs at least two microphones",
        ));
    }
    if !healthy.windows(2).all(|w| w[0] < w[1]) {
        return Err(EchoImageError::InvalidParameter(
            "mic-subset mask must be strictly increasing",
        ));
    }
    if healthy.iter().any(|&m| m >= array.len()) {
        return Err(EchoImageError::InvalidParameter(
            "mic-subset mask names a microphone outside the array",
        ));
    }
    Ok(())
}

/// The cell-to-origin distance `D_k = √(x_k² + D_p² + z_k²)` used both by
/// the time gate and by the inverse-square augmentation (Eq. 13–14).
pub fn cell_distance(x_k: f64, d_p: f64, z_k: f64) -> f64 {
    (x_k * x_k + d_p * d_p + z_k * z_k).sqrt()
}

/// The per-sample sweep the quadratic form replaced: for every cell,
/// beamform each gated analytic sample and sum the squared real parts.
/// The oracle of the property tests below.
#[cfg(test)]
pub(crate) fn imaging_reference(
    capture: &BeepCapture,
    analytic: &[Vec<Complex>],
    array: &MicArray,
    horizontal_distance: f64,
    cov: &SpatialCovariance,
    config: &PipelineConfig,
) -> GrayImage {
    let icfg = &config.imaging;
    let field = crate::steering_cache::compute_field(
        array,
        icfg,
        horizontal_distance,
        config.beep.center_frequency(),
    );
    let designer = MvdrDesigner::new(cov).unwrap();
    let gates = GateGeometry::new(capture, config);
    let mut image = GrayImage::zeros(icfg.grid_n, icfg.grid_n);
    for row in 0..icfg.grid_n {
        for col in 0..icfg.grid_n {
            let cell = field.cell(col, row);
            let weights = match icfg.beamformer {
                BeamformerKind::Mvdr => designer.weights(&cell.steering).unwrap(),
                BeamformerKind::DelayAndSum => das_weights(&cell.steering),
            };
            let (start, end) = gates.gate(cell.distance);
            if start >= end {
                continue;
            }
            let mut energy = 0.0;
            for t in start..end {
                let mut acc = Complex::ZERO;
                for (ch, &w) in analytic.iter().zip(weights.iter()) {
                    acc += w.conj() * ch[t];
                }
                energy += acc.re * acc.re;
            }
            image.set(col, row, energy.sqrt());
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::resolve_covariance;
    use crate::pipeline::EchoImagePipeline;
    use echo_dsp::hilbert::analytic_signal;
    use echo_dsp::stats::cosine_similarity;
    use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
    use proptest::prelude::*;

    /// Largest pixel difference, relative to the largest reference pixel.
    fn relative_gap(a: &GrayImage, reference: &GrayImage) -> f64 {
        let max = reference.pixels().iter().fold(0.0f64, |m, p| m.max(*p));
        assert!(max > 0.0, "the reference image must not be black");
        let gap = a
            .pixels()
            .iter()
            .zip(reference.pixels())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        gap / max
    }

    /// A band-passed capture of a body at `distance`, cut to `len`
    /// samples.
    fn filtered_capture(distance: f64, len: usize) -> BeepCapture {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(6);
        let cap = scene.capture_beep(&body, &Placement::standing_front(distance), 0, 0);
        let filtered = EchoImagePipeline::new(PipelineConfig::default()).preprocess(&cap);
        let len = len.min(filtered.len());
        BeepCapture::new(
            filtered
                .channels()
                .iter()
                .map(|c| c[..len].to_vec())
                .collect(),
            filtered.sample_rate(),
            filtered.preroll(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The quadratic form is the per-sample sweep, rearranged: on the
        /// same analytic channels the two agree to rounding, for either
        /// beamformer, any grid and plane, and gates that the end of the
        /// capture clips or empties.
        #[test]
        fn quadratic_form_matches_per_sample_oracle(
            grid_n in 8usize..49,
            plane in 0.4f64..1.6,
            das in 0u8..2,
            clip in 0usize..480,
        ) {
            let mut config = PipelineConfig::default();
            config.imaging.grid_n = grid_n;
            if das == 1 {
                config.imaging.beamformer = BeamformerKind::DelayAndSum;
            }
            // Half the cases cut the capture `clip` samples past the
            // plane's nearest gate centre, so far cells' gates are
            // clipped or empty; the rest keep the whole capture.
            let full = filtered_capture(0.7, usize::MAX);
            let len = if clip < 240 {
                full.preroll() + (2.0 * plane / SPEED_OF_SOUND * full.sample_rate()) as usize + clip
            } else {
                usize::MAX
            };
            let capture = filtered_capture(0.7, len);
            let array = MicArray::respeaker_6();
            let cov = resolve_covariance(std::slice::from_ref(&capture), &array, &config);
            let analytic = analytic_channels(&capture, &mut FftScratch::new());
            let fast = construct_image_with_covariance(&capture, &array, plane, &cov, &config).unwrap();
            let oracle = imaging_reference(&capture, &analytic, &array, plane, &cov, &config);
            prop_assert!(fast.pixels().iter().all(|p| p.is_finite() && *p >= 0.0));
            let gap = relative_gap(&fast, &oracle);
            prop_assert!(gap <= 1e-12, "relative gap {gap:e}");
        }
    }

    #[test]
    fn padded_analytic_signal_moves_pixels_by_under_a_millionth() {
        // The one intended change in bits: imaging now reads the padded
        // radix-2 analytic signal ranging already computes, instead of
        // its own Bluestein transform of the unpadded capture. Pinned on
        // the planes imaging actually visits: the user's, and the ±3 cm
        // enrolment offsets.
        let array = MicArray::respeaker_6();
        for (user, plane, beamformer) in [
            (0.7, 0.7, BeamformerKind::Mvdr),
            (0.7, 0.7, BeamformerKind::DelayAndSum),
            (0.7, 0.67, BeamformerKind::Mvdr),
            (0.7, 0.73, BeamformerKind::Mvdr),
            (1.0, 1.0, BeamformerKind::Mvdr),
            (1.3, 1.3, BeamformerKind::Mvdr),
        ] {
            let mut config = PipelineConfig::default();
            config.imaging.beamformer = beamformer;
            let capture = filtered_capture(user, usize::MAX);
            let cov = resolve_covariance(std::slice::from_ref(&capture), &array, &config);
            let exact: Vec<Vec<Complex>> = (0..capture.num_channels())
                .map(|ch| analytic_signal(capture.channel(ch)))
                .collect();
            let padded =
                construct_image_with_covariance(&capture, &array, plane, &cov, &config).unwrap();
            let bluestein = imaging_reference(&capture, &exact, &array, plane, &cov, &config);
            let gap = relative_gap(&padded, &bluestein);
            assert!(
                gap <= 1e-6,
                "user {user} m, plane {plane} m, {beamformer:?}: relative gap {gap:e}"
            );
        }
    }

    fn image_for(body_seed: u64, beep: u64, distance: f64) -> GrayImage {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(body_seed);
        let cap = scene.capture_beep(&body, &Placement::standing_front(distance), 0, beep);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let filtered = pipeline.preprocess(&cap);
        construct_image(
            &filtered,
            &MicArray::respeaker_6(),
            distance,
            pipeline.config(),
        )
        .unwrap()
    }

    #[test]
    fn image_has_configured_size_and_finite_pixels() {
        let img = image_for(1, 0, 0.7);
        assert_eq!(img.width(), 32);
        assert_eq!(img.height(), 32);
        assert!(img.pixels().iter().all(|p| p.is_finite() && *p >= 0.0));
        assert!(img.pixels().iter().any(|p| *p > 0.0));
    }

    #[test]
    fn same_user_images_are_similar_across_beeps() {
        // Paper Fig. 8: images of one user are very similar, images of
        // different users differ significantly.
        // Different beep indices everywhere: no two real recordings share
        // an ambient-noise realisation. Similarity is measured on
        // mean-centred pixels — the raw cosine is dominated by the common
        // positive "standing person" blob every image shares.
        let a0 = image_for(1, 0, 0.7);
        let a1 = image_for(1, 1, 0.7);
        let b0 = image_for(2, 7, 0.7);
        let centred = |i: &GrayImage| -> Vec<f64> {
            let m = i.mean();
            i.pixels().iter().map(|p| p - m).collect()
        };
        let same = cosine_similarity(&centred(&a0), &centred(&a1));
        let cross = cosine_similarity(&centred(&a0), &centred(&b0));
        assert!(same > 0.9, "same-user similarity {same}");
        assert!(same > cross, "same {same} vs cross {cross}");
    }

    #[test]
    fn body_region_is_brighter_than_plane_edges() {
        // Pixels in the central body region should carry more energy
        // than the extreme corners of the plane.
        let img = image_for(3, 0, 0.7);
        let n = img.width();
        let center_band: f64 = (n / 4..3 * n / 4)
            .flat_map(|r| (n / 4..3 * n / 4).map(move |c| (c, r)))
            .map(|(c, r)| img.get(c, r))
            .sum();
        let corners: f64 = [(0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)]
            .iter()
            .map(|&(c, r)| img.get(c, r))
            .sum::<f64>()
            * ((n / 2) * (n / 2)) as f64
            / 4.0;
        assert!(
            center_band > corners * 0.8,
            "centre {center_band} vs corner-scaled {corners}"
        );
    }

    #[test]
    fn das_and_mvdr_images_differ() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(4);
        let cap = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let filtered = pipeline.preprocess(&cap);
        let mvdr =
            construct_image(&filtered, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
        let mut das_cfg = pipeline.config().clone();
        das_cfg.imaging.beamformer = BeamformerKind::DelayAndSum;
        let das = construct_image(&filtered, &MicArray::respeaker_6(), 0.7, &das_cfg).unwrap();
        assert_ne!(mvdr, das);
    }

    #[test]
    fn cell_distance_formula() {
        assert!((cell_distance(0.3, 0.7, -0.2) - (0.09f64 + 0.49 + 0.04).sqrt()).abs() < 1e-12);
        assert_eq!(cell_distance(0.0, 1.0, 0.0), 1.0);
    }

    #[test]
    fn negative_distance_is_rejected() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let cap = scene.capture_empty(0, 0);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let err =
            construct_image(&cap, &MicArray::respeaker_6(), -0.5, pipeline.config()).unwrap_err();
        assert!(matches!(err, EchoImageError::InvalidParameter(_)));
    }

    #[test]
    fn empty_scene_image_is_darker_than_body_image() {
        let scene = Scene::new(SceneConfig::laboratory_quiet(9));
        let body = BodyModel::from_seed(5);
        let pipeline = EchoImagePipeline::new(PipelineConfig::default());
        let with =
            pipeline.preprocess(&scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0));
        let without = pipeline.preprocess(&scene.capture_empty(0, 0));
        let img_with =
            construct_image(&with, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
        let img_without =
            construct_image(&without, &MicArray::respeaker_6(), 0.7, pipeline.config()).unwrap();
        let sum = |i: &GrayImage| i.pixels().iter().sum::<f64>();
        assert!(sum(&img_with) > 2.0 * sum(&img_without));
    }
}
