//! Bit-level determinism of the parallel imaging engine.
//!
//! The parallel sweep, the steering-field cache and the precomputed
//! MVDR designer are all claimed to be *bit-identical* to the serial
//! reference path. These tests hold that claim to `f64::to_bits`
//! equality — not approximate closeness — because a biometric template
//! must not depend on the machine's core count or on cache state.

use echo_ml::GrayImage;
use echo_sim::{BodyModel, Placement, Scene, SceneConfig};
use echoimage_core::config::ImagingConfig;
use echoimage_core::distance::{estimate_distance, resolve_covariance};
use echoimage_core::imaging::construct_image_with_covariance;
use echoimage_core::pipeline::{EchoImagePipeline, PipelineConfig};
use echoimage_core::steering_cache;

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        imaging: ImagingConfig {
            grid_n: 16,
            grid_spacing: 0.1,
            ..ImagingConfig::default()
        },
        threads,
        ..PipelineConfig::default()
    }
}

fn assert_images_bit_identical(a: &[GrayImage], b: &[GrayImage]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        let (px, py) = (x.pixels(), y.pixels());
        assert_eq!(px.len(), py.len());
        for (p, q) in px.iter().zip(py.iter()) {
            assert_eq!(p.to_bits(), q.to_bits(), "pixel bits diverged");
        }
    }
}

#[test]
fn four_threads_match_serial_reference() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(11));
    let body = BodyModel::from_seed(21);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 3, 0);

    let (serial, est_serial) = EchoImagePipeline::new(config(1))
        .images_from_train(&caps)
        .unwrap();
    for threads in [2, 4] {
        let (parallel, est_parallel) = EchoImagePipeline::new(config(threads))
            .images_from_train(&caps)
            .unwrap();
        assert_eq!(
            est_serial.horizontal_distance.to_bits(),
            est_parallel.horizontal_distance.to_bits()
        );
        assert_images_bit_identical(&serial, &parallel);
    }
}

#[test]
fn multi_plane_fanout_matches_serial_reference() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(13));
    let body = BodyModel::from_seed(22);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 2, 0);
    let offsets = [-0.03, 0.03];

    let (serial, _) = EchoImagePipeline::new(config(1))
        .images_from_train_multi_plane(&caps, &offsets)
        .unwrap();
    let (parallel, _) = EchoImagePipeline::new(config(4))
        .images_from_train_multi_plane(&caps, &offsets)
        .unwrap();
    // capture-major order: (beeps) × (estimate + two offsets).
    assert_eq!(serial.len(), 2 * 3);
    assert_images_bit_identical(&serial, &parallel);
}

#[test]
fn warm_steering_cache_matches_cold_computation() {
    let scene = Scene::new(SceneConfig::laboratory_quiet(17));
    let body = BodyModel::from_seed(23);
    let cap = scene.capture_beep(&body, &Placement::standing_front(0.7), 0, 0);
    let pipeline = EchoImagePipeline::new(config(1));

    steering_cache::clear_cache();
    let cold = pipeline.acoustic_image(&cap, 0.7).unwrap();
    assert!(
        steering_cache::cache_len() > 0,
        "cold run must populate the cache"
    );
    let warm = pipeline.acoustic_image(&cap, 0.7).unwrap();
    assert_images_bit_identical(std::slice::from_ref(&cold), std::slice::from_ref(&warm));
}

#[test]
fn auto_thread_count_matches_serial_reference() {
    // threads = 0 resolves to available parallelism — whatever that is
    // on the machine running this test, the image must not change.
    let scene = Scene::new(SceneConfig::laboratory_quiet(19));
    let body = BodyModel::from_seed(24);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 2, 0);

    let (serial, _) = EchoImagePipeline::new(config(1))
        .images_from_train(&caps)
        .unwrap();
    let (auto, _) = EchoImagePipeline::new(config(0))
        .images_from_train(&caps)
        .unwrap();
    assert_images_bit_identical(&serial, &auto);
}

/// The per-call sequence a caller timing each layer issues: band-pass,
/// range, resolve the covariance, then image each beep at each plane.
fn per_call_images(
    pipeline: &EchoImagePipeline,
    caps: &[echo_sim::BeepCapture],
    offsets: &[f64],
) -> Vec<GrayImage> {
    let filtered: Vec<_> = caps.iter().map(|c| pipeline.preprocess(c)).collect();
    let est = estimate_distance(&filtered, pipeline.array(), pipeline.config()).unwrap();
    let cov = resolve_covariance(&filtered, pipeline.array(), pipeline.config());
    let mut planes = vec![est.horizontal_distance];
    planes.extend(
        offsets
            .iter()
            .map(|o| (est.horizontal_distance + o).max(0.2)),
    );
    let mut images = Vec::new();
    for capture in &filtered {
        for &d in &planes {
            images.push(
                construct_image_with_covariance(
                    capture,
                    pipeline.array(),
                    d,
                    &cov,
                    pipeline.config(),
                )
                .unwrap(),
            );
        }
    }
    images
}

#[test]
fn shared_train_path_matches_per_call_sequence() {
    // The pipeline shares one analytic signal per beep, one covariance
    // per train and one weight design per plane; the public per-call
    // functions build each for themselves. Both must yield the same bits.
    let scene = Scene::new(SceneConfig::laboratory_quiet(23));
    let body = BodyModel::from_seed(25);
    let caps = scene.capture_train(&body, &Placement::standing_front(0.7), 0, 3, 0);
    let offsets = [-0.03, 0.03];
    for threads in [1, 0] {
        let pipeline = EchoImagePipeline::new(config(threads));
        let (single, _) = pipeline.images_from_train(&caps).unwrap();
        assert_images_bit_identical(&single, &per_call_images(&pipeline, &caps, &[]));
        let (multi, _) = pipeline
            .images_from_train_multi_plane(&caps, &offsets)
            .unwrap();
        assert_eq!(multi.len(), 3 * 3);
        assert_images_bit_identical(&multi, &per_call_images(&pipeline, &caps, &offsets));
    }
}
